package difftest_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simsweep/internal/aiger"
	"simsweep/internal/difftest"
	"simsweep/internal/miter"
	"simsweep/internal/par"
)

// corpusDir is the checked-in reproducer corpus: every miter that ever
// exposed a disagreement (or was shrunk from an interesting edge case)
// lives here and is replayed through all backends on every test run.
const corpusDir = "../../testdata/difftest/corpus"

// TestCorpusReplay re-runs every stored miter through the full backend
// roster — past disagreements are permanent regressions. New entries are
// added by `cecfuzz -corpus testdata/difftest/corpus` on a failing seed.
func TestCorpusReplay(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("reading corpus: %v (the corpus is checked in; it must exist)", err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".aag") || strings.HasSuffix(e.Name(), ".aig") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("corpus is empty")
	}
	dev := par.NewDevice(2)
	defer dev.Close()
	backends := difftest.DefaultBackends(2, 1)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			m, err := aiger.ReadFile(filepath.Join(corpusDir, name))
			if err != nil {
				t.Fatal(err)
			}
			rep := difftest.CrossCheck(dev, backends, difftest.Case{Kind: "corpus/" + name, Miter: m})
			for _, f := range rep.Failures {
				t.Errorf("%s[%s]: %s", f.Kind, f.Backend, f.Detail)
			}
			if rep.Verdict == miter.Undecided {
				t.Error("no backend decided a corpus miter")
			}
		})
	}
}
