package aiger

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// hostileHeader declares a billion ANDs in a 32-byte file.
const hostileHeader = "aig 1000000000 0 0 0 1000000000\n"

// TestHostileHeaderFailsFast: header counts are untrusted input. A file
// whose header declares far more records than its body holds must fail at
// the end of the body having allocated for what the stream delivered, not
// for what the header claims — whether or not the reader knows its length,
// in both formats and through both readers.
func TestHostileHeaderFailsFast(t *testing.T) {
	cases := []struct {
		src        string
		sequential bool
	}{
		{hostileHeader, false},
		{"aag 1000000000 0 0 0 1000000000\n", false},
		{"aig 1000000000 0 0 1000000000 1000000000\n", false},
		{"aag 1000000000 1000000000 0 0 0\n", false},
		{"aag 1000000000 0 0 1000000000 1000000000\n2\n4 2 0\n", false},
		{"aig 1000000000 0 1000000000 0 0\n", true},
		{"aag 1000000000 0 1000000000 0 0\n", true},
		{hostileHeader, true},
	}
	readers := map[string]func(string) io.Reader{
		// bytes.Reader knows its unread length ...
		"len": func(s string) io.Reader { return bytes.NewReader([]byte(s)) },
		// ... a plain stream does not.
		"stream": func(s string) io.Reader { return struct{ io.Reader }{bytes.NewReader([]byte(s))} },
	}
	for _, tc := range cases {
		for kind, mk := range readers {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var err error
			if tc.sequential {
				_, _, err = ReadSequential(mk(tc.src))
			} else {
				_, err = Read(mk(tc.src))
			}
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s %q: accepted", kind, tc.src)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("%s %q: allocated %d bytes before failing (%v)", kind, tc.src, alloc, err)
			}
		}
	}
}
