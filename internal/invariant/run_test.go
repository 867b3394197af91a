package invariant

import (
	"errors"
	"fmt"
	"testing"
)

// TestViolationLogCap: a verified execution keeps the first maxViolations
// violations and summarises the rest in one trailing error.
func TestViolationLogCap(t *testing.T) {
	var clean violationLog
	if err := clean.err("run"); err != nil {
		t.Fatalf("no violations gave %v, want nil", err)
	}

	var v violationLog
	for i := 0; i < maxViolations+3; i++ {
		v.add(fmt.Errorf("violation %d", i))
	}
	err := v.err("run")
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %v does not join its violations", err)
	}
	errs := joined.Unwrap()
	if len(errs) != maxViolations+1 {
		t.Fatalf("kept %d errors, want %d violations plus a summary", len(errs), maxViolations)
	}
	for i, e := range errs[:maxViolations] {
		if want := fmt.Sprintf("violation %d", i); e.Error() != want {
			t.Errorf("error %d is %q, want %q", i, e, want)
		}
	}
	if got, want := errs[maxViolations].Error(), "... and 3 further violations"; got != want {
		t.Errorf("summary is %q, want %q", got, want)
	}
}
