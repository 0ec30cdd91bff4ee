package gen

import (
	"fmt"
	"testing"
)

// TestBoothArrayMiterPolarity checks the generator's promise by exhaustive
// evaluation: the unflipped Booth-vs-array miter sets no PO on any input,
// and the flipped one sets a PO on at least one input (and, the flip being
// chosen for rarity, not on every input).
func TestBoothArrayMiterPolarity(t *testing.T) {
	for _, w := range []int{4, 5, 6} {
		for _, flip := range []bool{false, true} {
			t.Run(fmt.Sprintf("w%d/flip=%v", w, flip), func(t *testing.T) {
				m, err := BoothArrayMiter(w, flip)
				if err != nil {
					t.Fatal(err)
				}
				n := m.NumPIs()
				if n != 2*w {
					t.Fatalf("%d PIs, want %d", n, 2*w)
				}
				in := make([]bool, n)
				firing := 0
				for x := 0; x < 1<<n; x++ {
					for i := range in {
						in[i] = x>>i&1 == 1
					}
					for _, v := range m.Eval(in) {
						if v {
							firing++
							break
						}
					}
				}
				switch {
				case !flip && firing != 0:
					t.Fatalf("equivalent miter sets a PO on %d of %d inputs", firing, 1<<n)
				case flip && (firing == 0 || firing == 1<<n):
					t.Fatalf("flipped miter sets a PO on %d of %d inputs, want some but not all", firing, 1<<n)
				}
			})
		}
	}
}
