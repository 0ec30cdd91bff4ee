package aiger

import (
	"fmt"
	"io"
	"os"

	"simsweep/internal/aig"
)

// Sequential AIGER support. CEC is combinational, so sequential designs
// are checked after latch-boundary cutting: every latch output becomes a
// pseudo primary input and every latch next-state function a pseudo
// primary output. Two sequential designs with the same state encoding are
// equivalent iff their cut combinational views are — the standard
// reduction used by equivalence checkers.

// ReadSequential parses an AIGER file that may contain latches and returns
// the latch-boundary-cut combinational view: PIs are the real inputs
// followed by one pseudo-input per latch; POs are the real outputs
// followed by one pseudo-output per latch (its next-state literal).
// NumLatches reports how many pseudo pairs were appended.
func ReadSequential(r io.Reader) (g *aig.AIG, numLatches int, err error) {
	br, h, err := readHeader(r)
	if err != nil {
		return nil, 0, err
	}
	if g, err = readBody(br, h); err != nil {
		return nil, 0, err
	}
	return g, h.l, nil
}

// ReadSequentialFile parses the (possibly sequential) AIGER file at path.
func ReadSequentialFile(path string) (*aig.AIG, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	g, l, err := ReadSequential(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return g, l, nil
}
