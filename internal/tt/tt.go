// Package tt implements word-parallel truth tables.
//
// A truth table of a k-input Boolean function is a bit string of length 2^k
// stored in 64-bit words, least-significant bit first: bit i of the string
// is the function value under the input assignment (a_0, …, a_{k-1}) with
// 2^{k-1}·a_{k-1} + … + 2^0·a_0 = i (the convention of the paper's
// preliminaries). Tables with fewer than 6 variables occupy a single,
// partially masked word.
package tt

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordBits is the number of truth-table bits held per word.
const WordBits = 64

// MaxVars bounds the supported number of variables: 2^MaxVars bits must fit
// in an int-indexed word slice; 30 variables is a 128 MiB table, far beyond
// anything the engine simulates in one piece.
const MaxVars = 30

// WordsFor returns the number of 64-bit words of a truth table over v
// variables (at least 1).
func WordsFor(v int) int {
	if v <= 6 {
		return 1
	}
	return 1 << (v - 6)
}

// TT is a truth table over NumVars variables. Words beyond the used bits of
// a <6-variable table are kept in a canonical "replicated" form: the low
// 2^v bits are duplicated to fill the word, which makes bitwise operators
// and comparisons valid without masking. All constructors and operations in
// this package maintain that canonical form.
type TT struct {
	NumVars int
	Words   []uint64
}

// New returns the constant-0 truth table over v variables.
func New(v int) TT {
	if v < 0 || v > MaxVars {
		panic(fmt.Sprintf("tt: unsupported variable count %d", v))
	}
	return TT{NumVars: v, Words: make([]uint64, WordsFor(v))}
}

// NewConst returns the constant truth table over v variables.
func NewConst(v int, value bool) TT {
	t := New(v)
	if value {
		for i := range t.Words {
			t.Words[i] = ^uint64(0)
		}
	}
	return t
}

// replicate fills a word with the low 2^v bits repeated, for v < 6.
func replicate(low uint64, v int) uint64 {
	span := uint(1) << uint(v)
	low &= (uint64(1) << span) - 1
	for span < 64 {
		low |= low << span
		span <<= 1
	}
	return low
}

// ProjectionWord returns word w of the projection truth table of variable i
// (zero-based). It is valid for any w ≥ 0, so callers can generate segments
// of arbitrarily long projection tables without materialising them — this is
// how Algorithm 1 seeds window inputs round by round.
func ProjectionWord(i int, w int) uint64 {
	if i < 6 {
		return projPatterns[i]
	}
	if (w>>(uint(i)-6))&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// projPatterns[i] is the repeating 64-bit pattern of projection variable i<6.
var projPatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Projection returns the truth table of the projection function x_i over v
// variables.
func Projection(i, v int) TT {
	if i < 0 || i >= v {
		panic(fmt.Sprintf("tt: projection %d out of range for %d vars", i, v))
	}
	t := New(v)
	for w := range t.Words {
		t.Words[w] = ProjectionWord(i, w)
	}
	if v < 6 {
		t.Words[0] = replicate(t.Words[0], v)
	}
	return t
}

// FromBits builds a truth table over v variables from the 2^v low bits given
// as a big-endian bit string like "0010" (the textual convention of the
// paper: leftmost character is the value under the all-ones assignment).
func FromBits(s string) (TT, error) {
	n := len(s)
	if n == 0 || n&(n-1) != 0 {
		return TT{}, fmt.Errorf("tt: bit string length %d is not a power of two", n)
	}
	v := bits.TrailingZeros(uint(n))
	t := New(v)
	for i := 0; i < n; i++ {
		c := s[n-1-i]
		switch c {
		case '1':
			t.Words[i/64] |= 1 << uint(i%64)
		case '0':
		default:
			return TT{}, fmt.Errorf("tt: invalid character %q in bit string", c)
		}
	}
	if v < 6 {
		t.Words[0] = replicate(t.Words[0], v)
	}
	return t, nil
}

// String renders the table as a big-endian bit string of length 2^NumVars.
func (t TT) String() string {
	n := 1 << uint(t.NumVars)
	var b strings.Builder
	b.Grow(n)
	for i := n - 1; i >= 0; i-- {
		if t.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Bit reports the function value under input assignment index i.
func (t TT) Bit(i int) bool {
	return (t.Words[i/64]>>uint(i%64))&1 == 1
}

// SetBit sets the function value under input assignment index i. For tables
// with fewer than 6 variables the canonical replicated form is restored.
func (t *TT) SetBit(i int, v bool) {
	if v {
		t.Words[i/64] |= 1 << uint(i%64)
	} else {
		t.Words[i/64] &^= 1 << uint(i%64)
	}
	if t.NumVars < 6 {
		t.Words[0] = replicate(t.Words[0], t.NumVars)
	}
}

// Clone returns a deep copy of t.
func (t TT) Clone() TT {
	w := make([]uint64, len(t.Words))
	copy(w, t.Words)
	return TT{NumVars: t.NumVars, Words: w}
}

// Equal reports whether t and u are the same function over the same
// variable count.
func (t TT) Equal(u TT) bool {
	if t.NumVars != u.NumVars {
		return false
	}
	for i, w := range t.Words {
		if w != u.Words[i] {
			return false
		}
	}
	return true
}

// IsConst0 reports whether t is the constant-0 function.
func (t TT) IsConst0() bool {
	for _, w := range t.Words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether t is the constant-1 function.
func (t TT) IsConst1() bool {
	for _, w := range t.Words {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// And returns t AND u.
func (t TT) And(u TT) TT {
	t.checkSame(u)
	out := New(t.NumVars)
	for i := range out.Words {
		out.Words[i] = t.Words[i] & u.Words[i]
	}
	return out
}

// Or returns t OR u.
func (t TT) Or(u TT) TT {
	t.checkSame(u)
	out := New(t.NumVars)
	for i := range out.Words {
		out.Words[i] = t.Words[i] | u.Words[i]
	}
	return out
}

// Xor returns t XOR u.
func (t TT) Xor(u TT) TT {
	t.checkSame(u)
	out := New(t.NumVars)
	for i := range out.Words {
		out.Words[i] = t.Words[i] ^ u.Words[i]
	}
	return out
}

// Not returns the complement of t.
func (t TT) Not() TT {
	out := New(t.NumVars)
	for i := range out.Words {
		out.Words[i] = ^t.Words[i]
	}
	return out
}

// AndNot returns t AND NOT u.
func (t TT) AndNot(u TT) TT {
	t.checkSame(u)
	out := New(t.NumVars)
	for i := range out.Words {
		out.Words[i] = t.Words[i] &^ u.Words[i]
	}
	return out
}

func (t TT) checkSame(u TT) {
	if t.NumVars != u.NumVars {
		panic(fmt.Sprintf("tt: mismatched variable counts %d and %d", t.NumVars, u.NumVars))
	}
}

// CountOnes returns the number of satisfying assignments (over the canonical
// 2^NumVars bits, not the replicated word).
func (t TT) CountOnes() int {
	n := 1 << uint(t.NumVars)
	total := 0
	for i, w := range t.Words {
		if t.NumVars < 6 {
			w &= (uint64(1) << uint(n)) - 1
		}
		_ = i
		total += bits.OnesCount64(w)
	}
	return total
}

// Cofactor returns the cofactor of t with variable i fixed to value.
// The result is still expressed over NumVars variables (variable i becomes
// irrelevant), which keeps downstream algebra simple.
func (t TT) Cofactor(i int, value bool) TT {
	if i < 0 || i >= t.NumVars {
		panic(fmt.Sprintf("tt: cofactor variable %d out of range", i))
	}
	out := t.Clone()
	if i < 6 {
		shift := uint(1) << uint(i)
		mask := projPatterns[i]
		for w, x := range out.Words {
			if value {
				hi := x & mask
				out.Words[w] = hi | hi>>shift
			} else {
				lo := x &^ mask
				out.Words[w] = lo | lo<<shift
			}
		}
		return out
	}
	step := 1 << (uint(i) - 6)
	for base := 0; base < len(out.Words); base += 2 * step {
		for k := 0; k < step; k++ {
			if value {
				out.Words[base+k] = out.Words[base+step+k]
			} else {
				out.Words[base+step+k] = out.Words[base+k]
			}
		}
	}
	return out
}

// DependsOn reports whether the function of t depends on variable i.
func (t TT) DependsOn(i int) bool {
	return !t.Cofactor(i, false).Equal(t.Cofactor(i, true))
}

// SupportSize returns the number of variables the function truly depends on.
func (t TT) SupportSize() int {
	n := 0
	for i := 0; i < t.NumVars; i++ {
		if t.DependsOn(i) {
			n++
		}
	}
	return n
}

// Expand re-expresses t over a larger variable set. mapping[i] gives the new
// index of old variable i; newVars is the new variable count. Variables not
// mentioned are don't-cares of the resulting function.
func (t TT) Expand(mapping []int, newVars int) TT {
	if len(mapping) != t.NumVars {
		panic("tt: Expand mapping length mismatch")
	}
	out := New(newVars)
	n := 1 << uint(newVars)
	for idx := 0; idx < n; idx++ {
		old := 0
		for i, m := range mapping {
			if (idx>>uint(m))&1 == 1 {
				old |= 1 << uint(i)
			}
		}
		if t.Bit(old) {
			out.Words[idx/64] |= 1 << uint(idx%64)
		}
	}
	if newVars < 6 {
		out.Words[0] = replicate(out.Words[0], newVars)
	}
	return out
}

// Eval evaluates the function under the assignment given by the low NumVars
// bits of input (bit i of input is variable i).
func (t TT) Eval(input uint32) bool {
	return t.Bit(int(input) & ((1 << uint(t.NumVars)) - 1))
}
