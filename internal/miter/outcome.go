package miter

// Outcome is a CEC verdict on a miter: whether every output is constant
// zero. It is the one verdict type of the repo; every engine, the facade
// (simsweep.Outcome), the portfolio and the differential harness share it.
type Outcome int

// Verdicts. Undecided is the zero value: an incomplete engine, a spent
// budget, a withdrawn (faulted) run and a cancelled run all settle here.
const (
	Undecided Outcome = iota
	Equivalent
	NotEquivalent
)

var outcomeText = [...]string{Undecided: "undecided", Equivalent: "equivalent", NotEquivalent: "NOT equivalent"}

// String renders the verdict for logs, CLI output and the service's wire
// format ("undecided", "equivalent", "NOT equivalent").
func (o Outcome) String() string {
	if o < 0 || int(o) >= len(outcomeText) {
		return outcomeText[Undecided]
	}
	return outcomeText[o]
}

// ParseOutcome inverts String. ok is false for any other text.
func ParseOutcome(s string) (o Outcome, ok bool) {
	for i, text := range outcomeText {
		if s == text {
			return Outcome(i), true
		}
	}
	return Undecided, false
}
