package harness

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTimedCompletes(t *testing.T) {
	m := Timed(time.Second, func(ctx context.Context) error {
		return nil
	})
	if m.TimedOut || m.Err != nil {
		t.Errorf("measurement = %+v", m)
	}
	if m.Elapsed < 0 {
		t.Error("negative elapsed")
	}
}

func TestTimedTimesOut(t *testing.T) {
	m := Timed(5*time.Millisecond, func(ctx context.Context) error {
		for {
			select {
			case <-ctx.Done():
				return errors.New("canceled")
			case <-time.After(time.Millisecond):
			}
		}
	})
	if !m.TimedOut {
		t.Errorf("expected timeout, got %+v", m)
	}
	if m.String() != "TIMEOUT" {
		t.Errorf("String() = %q", m.String())
	}
}

func TestTimedUnlimited(t *testing.T) {
	m := Timed(0, func(ctx context.Context) error {
		if _, has := ctx.Deadline(); has {
			return errors.New("unexpected deadline")
		}
		return nil
	})
	if m.Err != nil || m.TimedOut {
		t.Errorf("measurement = %+v", m)
	}
}

func TestTimedError(t *testing.T) {
	boom := errors.New("boom")
	m := Timed(time.Second, func(ctx context.Context) error { return boom })
	if m.Err != boom {
		t.Errorf("err = %v", m.Err)
	}
	if m.String() != "ERROR" {
		t.Errorf("String() = %q", m.String())
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		90 * time.Second:        "1m30s",
		1500 * time.Millisecond: "1.5s",
		2500 * time.Microsecond: "2.5ms",
		750 * time.Nanosecond:   "750ns",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Fig 3 (top) ECG", "range", "VALMOD", "STOMP", "MOEN")
	tab.AddRow(10, "1.2s", "45s", "30s")
	tab.AddRow(200, "3.4s", "TIMEOUT", "TIMEOUT")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== Fig 3") {
		t.Errorf("title line: %q", lines[0])
	}
	if !strings.Contains(lines[4], "TIMEOUT") {
		t.Errorf("row content: %q", lines[4])
	}
	// Header and data columns align: "VALMOD" starts where "1.2s" starts.
	hIdx := strings.Index(lines[1], "VALMOD")
	dIdx := strings.Index(lines[3], "1.2s")
	if hIdx != dIdx {
		t.Errorf("columns misaligned: %d vs %d\n%s", hIdx, dIdx, out)
	}
}
