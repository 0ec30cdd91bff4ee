// Package gen generates the benchmark circuits of the evaluation: the
// arithmetic families of the EPFL combinational suite (multiplier, square,
// sqrt, hyp, log2, sin, voter) and IWLS-2005-style control fabrics
// (ac97_ctrl, vga_lcd), all as structural AIG netlists, plus the "double"
// enlargement the paper applies. The real suites are not redistributable
// inputs of this build, so each family is regenerated from its defining
// arithmetic at configurable bit widths — same functional shape, same
// structural character (deep carry chains, wide shallow control, majority
// trees), scaled to CPU-sized experiments.
package gen

import (
	"fmt"

	"simsweep/internal/aig"
)

// BV is a little-endian bit vector of AIG literals (bit 0 first).
type BV []aig.Lit

// Inputs appends width fresh primary inputs.
func Inputs(g *aig.AIG, width int) BV {
	bv := make(BV, width)
	for i := range bv {
		bv[i] = g.AddPI()
	}
	return bv
}

// Constant builds the bit vector of an unsigned constant.
func Constant(value uint64, width int) BV {
	bv := make(BV, width)
	for i := range bv {
		if (value>>uint(i))&1 == 1 {
			bv[i] = aig.True
		} else {
			bv[i] = aig.False
		}
	}
	return bv
}

// Zext zero-extends (or truncates) the vector to width bits.
func (b BV) Zext(width int) BV {
	out := make(BV, width)
	for i := range out {
		if i < len(b) {
			out[i] = b[i]
		} else {
			out[i] = aig.False
		}
	}
	return out
}

// fullAdder returns (sum, carry).
func fullAdder(g *aig.AIG, a, b, c aig.Lit) (aig.Lit, aig.Lit) {
	axb := g.Xor(a, b)
	sum := g.Xor(axb, c)
	carry := g.Or(g.And(a, b), g.And(axb, c))
	return sum, carry
}

// Add returns a+b (same width as the longer input) and the carry-out,
// using a ripple-carry structure.
func Add(g *aig.AIG, a, b BV) (BV, aig.Lit) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	a, b = a.Zext(n), b.Zext(n)
	out := make(BV, n)
	carry := aig.False
	for i := 0; i < n; i++ {
		out[i], carry = fullAdder(g, a[i], b[i], carry)
	}
	return out, carry
}

// Sub returns a−b and the borrow-out (1 when a < b).
func Sub(g *aig.AIG, a, b BV) (BV, aig.Lit) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	a, b = a.Zext(n), b.Zext(n)
	out := make(BV, n)
	carry := aig.True // two's complement: a + ~b + 1
	for i := 0; i < n; i++ {
		out[i], carry = fullAdder(g, a[i], b[i].Not(), carry)
	}
	return out, carry.Not()
}

// Mux returns s ? t : e bitwise.
func Mux(g *aig.AIG, s aig.Lit, t, e BV) BV {
	n := len(t)
	if len(e) > n {
		n = len(e)
	}
	t, e = t.Zext(n), e.Zext(n)
	out := make(BV, n)
	for i := range out {
		out[i] = g.Mux(s, t[i], e[i])
	}
	return out
}

// And returns the bitwise conjunction of a with a single control literal.
func (b BV) And(g *aig.AIG, s aig.Lit) BV {
	out := make(BV, len(b))
	for i := range out {
		out[i] = g.And(b[i], s)
	}
	return out
}

// Shl returns the vector shifted left by a constant, keeping width.
func (b BV) Shl(k int) BV {
	out := make(BV, len(b))
	for i := range out {
		if i >= k {
			out[i] = b[i-k]
		} else {
			out[i] = aig.False
		}
	}
	return out
}

// Shr returns the vector shifted right by a constant, keeping width.
func (b BV) Shr(k int) BV {
	out := make(BV, len(b))
	for i := range out {
		if i+k < len(b) {
			out[i] = b[i+k]
		} else {
			out[i] = aig.False
		}
	}
	return out
}

// Mul returns the 2n-bit product of two n-bit vectors via an array
// multiplier (rows of partial products reduced by ripple adders — the
// structure of the EPFL "multiplier" benchmark family).
func Mul(g *aig.AIG, a, b BV) BV {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	a, b = a.Zext(n), b.Zext(n)
	acc := Constant(0, 2*n)
	for i := 0; i < n; i++ {
		pp := a.And(g, b[i]).Zext(2 * n).Shl(i)
		acc, _ = Add(g, acc, pp)
	}
	return acc
}

// Square returns the 2n-bit square of an n-bit vector. The partial-product
// triangle is folded (a_i·a_j appears twice for i≠j), giving a circuit
// smaller than Mul(x,x) and structurally distinct from it.
func Square(g *aig.AIG, a BV) BV {
	n := len(a)
	acc := Constant(0, 2*n)
	for i := 0; i < n; i++ {
		// Diagonal term a_i·a_i = a_i at weight 2i.
		diag := Constant(0, 2*n)
		diag[2*i] = a[i]
		acc, _ = Add(g, acc, diag)
		for j := i + 1; j < n; j++ {
			if 2*n <= i+j+1 {
				continue
			}
			// Cross term 2·a_i·a_j at weight i+j+1.
			cross := Constant(0, 2*n)
			cross[i+j+1] = g.And(a[i], a[j])
			acc, _ = Add(g, acc, cross)
		}
	}
	return acc
}

// Gte returns a ≥ b for equal-width vectors.
func Gte(g *aig.AIG, a, b BV) aig.Lit {
	_, borrow := Sub(g, a, b)
	return borrow.Not()
}

// Sqrt returns the floor square root (n/2 bits, rounded up) of an n-bit
// vector, via the restoring digit-recurrence algorithm — the structure of
// the EPFL "sqrt" benchmark, with its long sequential-like level chain.
func Sqrt(g *aig.AIG, x BV) BV {
	n := len(x)
	if n%2 == 1 {
		x = x.Zext(n + 1)
		n++
	}
	m := n / 2
	root := Constant(0, m)
	rem := Constant(0, n+2)
	for i := m - 1; i >= 0; i-- {
		// Bring down two bits of x.
		rem = rem.Shl(2)
		rem[1] = x[2*i+1]
		rem[0] = x[2*i]
		// Trial subtrahend: (root << 2) | 1.
		trial := root.Zext(n + 2).Shl(2)
		trial[0] = aig.True
		diff, borrow := Sub(g, rem, trial)
		fits := borrow.Not()
		rem = Mux(g, fits, diff, rem)
		root = root.Shl(1)
		root[0] = fits
	}
	return root
}

// PopCount returns the ⌈log2(n+1)⌉-bit population count of the literals,
// built as a balanced adder tree (the EPFL "voter" reduction structure).
func PopCount(g *aig.AIG, in []aig.Lit) BV {
	if len(in) == 0 {
		return Constant(0, 1)
	}
	vecs := make([]BV, len(in))
	for i, l := range in {
		vecs[i] = BV{l}
	}
	for len(vecs) > 1 {
		var next []BV
		for i := 0; i+1 < len(vecs); i += 2 {
			sum, carry := Add(g, vecs[i], vecs[i+1])
			v := make(BV, len(sum)+1)
			copy(v, sum)
			v[len(sum)] = carry
			next = append(next, v)
		}
		if len(vecs)%2 == 1 {
			next = append(next, vecs[len(vecs)-1])
		}
		vecs = next
	}
	return vecs[0]
}

func (b BV) clone() BV { return append(BV(nil), b...) }

// AddPOs registers every bit of the vector as a primary output.
func AddPOs(g *aig.AIG, b BV) {
	for _, l := range b {
		g.AddPO(l)
	}
}

// barrelShiftToMSB left-shifts x so its leading one lands at the top bit,
// returning the normalised vector and the binary shift amount. This is the
// normalisation stage of the log2 datapath.
func barrelShiftToMSB(g *aig.AIG, x BV) (BV, BV) {
	n := len(x)
	stages := 0
	for 1<<uint(stages) < n {
		stages++
	}
	cur := x.clone()
	shift := make(BV, stages)
	for s := stages - 1; s >= 0; s-- {
		k := 1 << uint(s)
		// Shift left by k when the top k bits are all zero.
		topZero := aig.True
		for i := n - k; i < n; i++ {
			if i >= 0 {
				topZero = g.And(topZero, cur[i].Not())
			}
		}
		shifted := cur.Shl(k)
		cur = Mux(g, topZero, shifted, cur)
		shift[s] = topZero
	}
	return cur, shift
}

func checkWidth(width, min int) error {
	if width < min {
		return fmt.Errorf("gen: width %d below minimum %d", width, min)
	}
	return nil
}
