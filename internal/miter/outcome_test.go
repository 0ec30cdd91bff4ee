package miter

import "testing"

func TestOutcomeStringsRoundTrip(t *testing.T) {
	for o, want := range map[Outcome]string{Undecided: "undecided", Equivalent: "equivalent", NotEquivalent: "NOT equivalent"} {
		if o.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
		if got, ok := ParseOutcome(want); !ok || got != o {
			t.Fatalf("ParseOutcome(%q) = %v, %v", want, got, ok)
		}
	}
	if o, ok := ParseOutcome("EQ"); ok || o != Undecided {
		t.Fatalf("ParseOutcome accepted %q as %v", "EQ", o)
	}
	if Outcome(7).String() != "undecided" {
		t.Fatalf("out-of-range outcome renders %q", Outcome(7).String())
	}
}
