package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunFigures drives each figure panel that finishes in well under a
// second at small sizes (1right's fixed [50, 400] range takes seconds) and
// checks that it returns no error and prints every panel header. Figure 3
// renders a failed run as an ERROR cell rather than returning the error,
// so its tables are checked for ERROR and TIMEOUT cells too; the budget is
// generous so that only a failure or a hang produces either.
func TestRunFigures(t *testing.T) {
	for _, c := range []struct {
		fig     string
		headers []string
	}{
		{"1left", []string{
			"== Figure 1 (left)", "(a) ECG data", "(b) Matrix profile l=50",
			"(c) Index profile", "motifs at l=50",
		}},
		{"2", []string{
			"== Figure 2:", "(a) distance profile of D(160,600)", "== top entries",
			"(b) partial distance profiles at length 601", "anchor D(160,601):",
		}},
		{"3top", []string{
			"== Figure 3 (top)", "== ECG ==", "== ASTRO ==",
			"VALMOD", "STOMP", "MOEN", "QUICKMOTIF", "\n4 ",
		}},
		{"3bottom", []string{
			"== Figure 3 (bottom)", "== ECG ==", "== ASTRO ==",
			"VALMOD", "STOMP", "MOEN", "QUICKMOTIF", "\n800 ",
		}},
	} {
		var out strings.Builder
		if err := run(&out, c.fig, 1500, 32, time.Minute, 1, []int{800}, []int{4}, 1); err != nil {
			t.Fatalf("-fig %s: %v", c.fig, err)
		}
		got := out.String()
		for _, h := range c.headers {
			if !strings.Contains(got, h) {
				t.Errorf("-fig %s: output lacks %q:\n%s", c.fig, h, got)
			}
		}
		for _, bad := range []string{"ERROR", "TIMEOUT"} {
			if strings.Contains(got, bad) {
				t.Errorf("-fig %s: a run reported %s:\n%s", c.fig, bad, got)
			}
		}
	}
	if err := run(&strings.Builder{}, "4", 1500, 32, time.Minute, 1, nil, nil, 1); err == nil {
		t.Error("-fig 4: want an unknown-figure error")
	}
}
