// Package aiger reads and writes combinational AIGER files, both the ASCII
// ("aag") and the binary ("aig") format of the AIGER 1.9 specification.
// Latches are not supported: CEC operates on combinational netlists, and
// sequential designs are checked after standard latch-boundary cutting.
package aiger

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"simsweep/internal/aig"
)

// Write writes g to w in the requested format.
func Write(w io.Writer, g *aig.AIG, binary bool) error {
	bw := bufio.NewWriter(w)
	if err := write(bw, g, binary); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes g to path, choosing the binary format when the file name
// ends in ".aig" and ASCII otherwise.
func WriteFile(path string, g *aig.AIG) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, g, strings.HasSuffix(path, ".aig"))
}

func write(w *bufio.Writer, g *aig.AIG, binary bool) error {
	// Renumber: AIGER requires inputs to occupy variables 1..I and ANDs
	// to follow in topological order.
	numVar := make([]uint32, g.NumNodes())
	next := uint32(1)
	for i := 0; i < g.NumPIs(); i++ {
		numVar[g.PIID(i)] = next
		next++
	}
	var ands []int
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			numVar[id] = next
			next++
			ands = append(ands, id)
		}
	}
	relit := func(l aig.Lit) uint32 {
		v := numVar[l.ID()] << 1
		if l.IsCompl() {
			v |= 1
		}
		return v
	}

	m := int(next) - 1
	format := "aag"
	if binary {
		format = "aig"
	}
	if _, err := fmt.Fprintf(w, "%s %d %d 0 %d %d\n", format, m, g.NumPIs(), g.NumPOs(), len(ands)); err != nil {
		return err
	}
	if !binary {
		for i := 0; i < g.NumPIs(); i++ {
			fmt.Fprintf(w, "%d\n", numVar[g.PIID(i)]<<1)
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		fmt.Fprintf(w, "%d\n", relit(g.PO(i)))
	}
	for _, id := range ands {
		f0, f1 := g.Fanins(id)
		l0, l1 := relit(f0), relit(f1)
		if l0 < l1 {
			l0, l1 = l1, l0
		}
		lhs := numVar[id] << 1
		if binary {
			if err := writeDelta(w, lhs-l0); err != nil {
				return err
			}
			if err := writeDelta(w, l0-l1); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(w, "%d %d %d\n", lhs, l0, l1)
		}
	}
	for i := 0; i < g.NumPIs(); i++ {
		if name := g.PIName(i); name != "" {
			fmt.Fprintf(w, "i%d %s\n", i, name)
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		if name := g.POName(i); name != "" {
			fmt.Fprintf(w, "o%d %s\n", i, name)
		}
	}
	if g.Name != "" {
		fmt.Fprintf(w, "c\n%s\n", g.Name)
	}
	return nil
}

func writeDelta(w *bufio.Writer, x uint32) error {
	for x >= 0x80 {
		if err := w.WriteByte(byte(x) | 0x80); err != nil {
			return err
		}
		x >>= 7
	}
	return w.WriteByte(byte(x))
}

// Read parses an AIGER file (ASCII or binary, detected from the header).
func Read(r io.Reader) (*aig.AIG, error) {
	br, h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if h.l != 0 {
		return nil, fmt.Errorf("aiger: %d latches present; only combinational AIGs are supported", h.l)
	}
	return readBody(br, h)
}

// ReadFile parses the AIGER file at path.
func ReadFile(path string) (*aig.AIG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// header is the parsed header line "aag|aig M I L O A".
type header struct {
	binary        bool
	m, i, l, o, a int
	// budget caps every allocation sized by a header count, because the
	// counts are untrusted: a 30-byte body can declare a billion ANDs. A
	// reader that knows its length (bytes.Reader, strings.Reader) bounds
	// them by half its unread bytes, since every record takes at least two;
	// for any other stream, arrays start at growCap entries. Either way
	// they grow as records are parsed, so memory follows what the stream
	// delivers.
	budget int
}

// growCap is the initial capacity of per-record arrays when the stream's
// length is unknown.
const growCap = 1 << 12

// capped bounds a header count by the budget, for use as a capacity hint.
func (h *header) capped(n int) int {
	if n > h.budget {
		return h.budget
	}
	return n
}

// readHeader parses and checks the header line.
func readHeader(r io.Reader) (*bufio.Reader, *header, error) {
	h := &header{budget: growCap}
	if lr, ok := r.(interface{ Len() int }); ok {
		h.budget = lr.Len() / 2
	}
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, nil, fmt.Errorf("aiger: reading header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 6 {
		return nil, nil, fmt.Errorf("aiger: malformed header %q", strings.TrimSpace(line))
	}
	switch fields[0] {
	case "aag":
	case "aig":
		h.binary = true
	default:
		return nil, nil, fmt.Errorf("aiger: unknown format %q", fields[0])
	}
	for idx, dst := range []*int{&h.m, &h.i, &h.l, &h.o, &h.a} {
		v, err := strconv.Atoi(fields[idx+1])
		if err != nil || v < 0 {
			return nil, nil, fmt.Errorf("aiger: bad header field %q", fields[idx+1])
		}
		*dst = v
	}
	if h.m != h.i+h.l+h.a {
		return nil, nil, fmt.Errorf("aiger: header M=%d does not equal I+L+A=%d", h.m, h.i+h.l+h.a)
	}
	if h.m > math.MaxInt32 {
		return nil, nil, fmt.Errorf("aiger: header M=%d exceeds the 32-bit literal range", h.m)
	}
	return br, h, nil
}

// readBody parses everything after the header into the latch-boundary-cut
// combinational view (see ReadSequential); without latches that is the
// AIG itself.
func readBody(br *bufio.Reader, h *header) (*aig.AIG, error) {
	if h.binary {
		return readBinary(br, h)
	}
	return readASCII(br, h)
}

// readRecord reads one ASCII line of exactly len(dst) unsigned fields; the
// last line of a file may lack its newline.
func readRecord(br *bufio.Reader, dst []uint32, what string) error {
	line, err := br.ReadString('\n')
	if err != nil && !(err == io.EOF && line != "") {
		return fmt.Errorf("aiger: unexpected end of file in %s section: %w", what, err)
	}
	f := strings.Fields(line)
	if len(f) != len(dst) {
		return fmt.Errorf("aiger: bad %s line %q", what, strings.TrimSpace(line))
	}
	for j, s := range f {
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return fmt.Errorf("aiger: bad %s literal %q", what, s)
		}
		dst[j] = uint32(v)
	}
	return nil
}

// readLits reads n one-literal lines.
func readLits(br *bufio.Reader, h *header, n int, what string) ([]uint32, error) {
	out := make([]uint32, 0, h.capped(n))
	var v [1]uint32
	for k := 0; k < n; k++ {
		if err := readRecord(br, v[:], what); err != nil {
			return nil, err
		}
		out = append(out, v[0])
	}
	return out, nil
}

// latchName and nextName name the pseudo-PI and pseudo-PO of latch k.
func latchName(k int) string { return fmt.Sprintf("latch%d", k) }
func nextName(k int) string  { return fmt.Sprintf("latch%d'", k) }

func readASCII(br *bufio.Reader, h *header) (*aig.AIG, error) {
	ins, err := readLits(br, h, h.i, "input")
	if err != nil {
		return nil, err
	}
	// Latch lines: "<current> <next>"; current becomes a pseudo-PI.
	latches := make([][2]uint32, 0, h.capped(h.l))
	for k := 0; k < h.l; k++ {
		var f [2]uint32
		if err := readRecord(br, f[:], "latch"); err != nil {
			return nil, err
		}
		latches = append(latches, f)
	}
	outs, err := readLits(br, h, h.o, "output")
	if err != nil {
		return nil, err
	}
	ands := make([][3]uint32, 0, h.capped(h.a))
	for k := 0; k < h.a; k++ {
		var f [3]uint32
		if err := readRecord(br, f[:], "AND"); err != nil {
			return nil, err
		}
		ands = append(ands, f)
	}

	// Every declared record has arrived, so tables over the M+1 variables
	// are bounded by the bytes read.
	g := aig.NewSized(h.m + 1)
	lits := make([]aig.Lit, h.m+1) // AIGER variable -> our literal
	defined := make([]bool, h.m+1)
	defined[0] = true
	fresh := func(l uint32) bool {
		return l&1 == 0 && l != 0 && int(l>>1) < len(lits) && !defined[l>>1]
	}
	ref := func(l uint32) (aig.Lit, bool) {
		if int(l>>1) >= len(lits) || !defined[l>>1] {
			return 0, false
		}
		return lits[l>>1].NotIf(l&1 == 1), true
	}
	for _, l := range ins {
		if !fresh(l) {
			return nil, fmt.Errorf("aiger: invalid input literal %d", l)
		}
		defined[l>>1] = true
		lits[l>>1] = g.AddPI()
	}
	for k, la := range latches {
		if !fresh(la[0]) {
			return nil, fmt.Errorf("aiger: invalid latch literal %d", la[0])
		}
		defined[la[0]>>1] = true
		lits[la[0]>>1] = g.AddPINamed(latchName(k))
	}
	// The ASCII format only requires lhs > rhs, not file order; sorting
	// by lhs makes every definition available before its uses.
	sort.Slice(ands, func(x, y int) bool { return ands[x][0] < ands[y][0] })
	for _, al := range ands {
		if !fresh(al[0]) || al[1] >= al[0] || al[2] >= al[0] {
			return nil, fmt.Errorf("aiger: AND %d invalid (rhs %d %d)", al[0], al[1], al[2])
		}
		f0, ok0 := ref(al[1])
		f1, ok1 := ref(al[2])
		if !ok0 || !ok1 {
			return nil, fmt.Errorf("aiger: AND %d references undefined variable", al[0])
		}
		defined[al[0]>>1] = true
		lits[al[0]>>1] = aig.UncheckedAnd(g, f0, f1) // ref checked both
	}
	for _, l := range outs {
		po, ok := ref(l)
		if !ok {
			return nil, fmt.Errorf("aiger: output references undefined literal %d", l)
		}
		g.AddPO(po)
	}
	for k, la := range latches {
		next, ok := ref(la[1])
		if !ok {
			return nil, fmt.Errorf("aiger: latch %d next-state undefined", k)
		}
		g.AddPONamed(next, nextName(k))
	}
	readSymbols(br, g)
	return g, nil
}

func readBinary(br *bufio.Reader, h *header) (*aig.AIG, error) {
	g := aig.NewSized(1 + h.capped(h.m))
	// Inputs and latches are implicit: AIGER variables 1..I+L, which are
	// node ids 1..I+L of the fresh graph.
	for k := 0; k < h.i; k++ {
		g.AddPI()
	}
	nexts, err := readLits(br, h, h.l, "latch")
	if err != nil {
		return nil, err
	}
	for k := range nexts {
		g.AddPINamed(latchName(k))
	}
	outs, err := readLits(br, h, h.o, "output")
	if err != nil {
		return nil, err
	}
	pis := h.i + h.l
	ands := make([]aig.Lit, 0, h.capped(h.a)) // literal of AND variable pis+1+k
	litOf := func(l uint32) (aig.Lit, error) {
		v := int(l >> 1)
		switch {
		case v <= pis:
			return aig.MakeLit(v, l&1 == 1), nil
		case v-pis-1 < len(ands):
			return ands[v-pis-1].NotIf(l&1 == 1), nil
		}
		return 0, fmt.Errorf("aiger: literal %d out of range", l)
	}
	for k := 0; k < h.a; k++ {
		lhs := uint32(pis+1+k) << 1
		d0, err := readDelta(br)
		if err != nil {
			return nil, err
		}
		d1, err := readDelta(br)
		if err != nil {
			return nil, err
		}
		if d0 == 0 || d0 > lhs {
			return nil, fmt.Errorf("aiger: invalid delta encoding at AND %d", lhs)
		}
		r0 := lhs - d0
		if d1 > r0 {
			return nil, fmt.Errorf("aiger: invalid second delta at AND %d", lhs)
		}
		f0, err := litOf(r0)
		if err != nil {
			return nil, err
		}
		f1, err := litOf(r0 - d1)
		if err != nil {
			return nil, err
		}
		ands = append(ands, aig.UncheckedAnd(g, f0, f1)) // litOf checked both
	}
	for _, l := range outs {
		po, err := litOf(l)
		if err != nil {
			return nil, err
		}
		g.AddPO(po)
	}
	for k, l := range nexts {
		next, err := litOf(l)
		if err != nil {
			return nil, err
		}
		g.AddPONamed(next, nextName(k))
	}
	readSymbols(br, g)
	return g, nil
}

func readDelta(br *bufio.Reader) (uint32, error) {
	var x uint32
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("aiger: unexpected end of binary AND section: %w", err)
		}
		x |= uint32(b&0x7F) << shift
		if b&0x80 == 0 {
			return x, nil
		}
		shift += 7
		if shift > 28 {
			return 0, fmt.Errorf("aiger: delta varint too long")
		}
	}
}

// readSymbols parses the optional symbol table and comment; names are
// currently informational and attached only via the comment into Name.
func readSymbols(br *bufio.Reader, g *aig.AIG) {
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		if line == "c" {
			if comment, err2 := io.ReadAll(br); err2 == nil {
				g.Name = strings.TrimSpace(string(comment))
			}
			return
		}
		if line != "" {
			// Symbol lines like "i0 name" / "o3 name" are tolerated
			// and ignored: node identity is positional in this tool.
			_ = line
		}
		if err != nil {
			return
		}
	}
}
