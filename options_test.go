package valmod_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	valmod "github.com/seriesmining/valmod"
)

// TestValidateNamesOffendingField covers every invalid-input path of
// Validate and checks the documented contract: the error wraps ErrBadInput
// and names the offending argument or Options field.
func TestValidateNamesOffendingField(t *testing.T) {
	ok := make([]float64, 100)
	for i := range ok {
		ok[i] = float64(i % 7)
	}
	nonFinite := append([]float64{1, 2}, math.Inf(1))

	cases := []struct {
		name   string
		values []float64
		lmin   int
		lmax   int
		opts   valmod.Options
		field  string // substring the error must carry
	}{
		{"negative TopK", ok, 8, 16, valmod.Options{TopK: -1}, "Options.TopK=-1"},
		{"negative P", ok, 8, 16, valmod.Options{P: -3}, "Options.P=-3"},
		{"P above MaxP", ok, 8, 16, valmod.Options{P: valmod.MaxP + 1}, "Options.P=257"},
		{"negative ExclusionFactor", ok, 8, 16, valmod.Options{ExclusionFactor: -2}, "Options.ExclusionFactor=-2"},
		{"negative RecomputeFraction", ok, 8, 16, valmod.Options{RecomputeFraction: -0.5}, "Options.RecomputeFraction=-0.5"},
		{"RecomputeFraction above one", ok, 8, 16, valmod.Options{RecomputeFraction: 1.5}, "Options.RecomputeFraction=1.5"},
		{"NaN RecomputeFraction", ok, 8, 16, valmod.Options{RecomputeFraction: math.NaN()}, "Options.RecomputeFraction=NaN"},
		{"negative Workers", ok, 8, 16, valmod.Options{Workers: -4}, "Options.Workers=-4"},
		{"negative Discords", ok, 8, 16, valmod.Options{Discords: -2}, "Options.Discords=-2"},
		{"empty series", nil, 8, 16, valmod.Options{}, "values: empty series"},
		{"non-finite value", nonFinite, 8, 16, valmod.Options{}, "values[2]"},
		{"lmin too small", ok, 3, 16, valmod.Options{}, "lmin=3"},
		{"inverted range", ok, 16, 8, valmod.Options{}, "lmax=8"},
		{"range beyond series", ok, 8, 500, valmod.Options{}, "lmax=500"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := valmod.Validate(tc.values, tc.lmin, tc.lmax, tc.opts)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !errors.Is(err, valmod.ErrBadInput) {
				t.Fatalf("error %v does not wrap ErrBadInput", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name the field (want substring %q)", err, tc.field)
			}
			// Discover must reject the same input with the same error shape.
			if _, derr := valmod.Discover(tc.values, tc.lmin, tc.lmax, tc.opts); derr == nil || derr.Error() != err.Error() {
				t.Fatalf("Discover error %v differs from Validate error %v", derr, err)
			}
		})
	}
}

// TestValidateAcceptsDefaults checks the zero-selects-default side of the
// contract for every field Validate polices.
func TestValidateAcceptsDefaults(t *testing.T) {
	ok := make([]float64, 64)
	for i := range ok {
		ok[i] = math.Sin(float64(i) / 3)
	}
	for _, opts := range []valmod.Options{
		{},
		{TopK: 5, P: 8, ExclusionFactor: 4, RecomputeFraction: 0.05, Workers: 2, Discords: 3},
		{RecomputeFraction: 1}, // boundary: 1 is valid
	} {
		if err := valmod.Validate(ok, 8, 16, opts); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
}
