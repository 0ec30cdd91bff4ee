package aiger

import (
	"bytes"
	"testing"
)

// FuzzRead checks that arbitrary bytes never panic the AIGER reader and
// that anything it accepts is a structurally valid AIG.
func FuzzRead(f *testing.F) {
	f.Add([]byte("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"))
	f.Add([]byte("aig 3 2 0 1 1\n6\n\x02\x02"))
	f.Add([]byte("aag 0 0 0 0 0\n"))
	f.Add([]byte("aag 1 0 1 0 0\n2 3\n"))
	f.Add([]byte(""))
	f.Add([]byte(hostileHeader))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted AIG fails validation: %v", err)
		}
		// A successfully parsed AIG must round-trip.
		var buf bytes.Buffer
		if err := Write(&buf, g, false); err != nil {
			t.Fatalf("write of accepted AIG failed: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("round trip of accepted AIG failed: %v", err)
		}
	})
}
