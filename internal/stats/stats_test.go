package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{0.1, 0.5, 0.5, 0.9})
	if e.Len() != 4 {
		t.Errorf("len = %d", e.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.0, 0.0},
		{0.1, 0.25},
		{0.5, 0.75},
		{0.9, 1.0},
		{1.0, 1.0},
	}
	for _, c := range cases {
		if got := e.F(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("F(%g) = %g, want %g", c.x, got, c.want)
		}
		if got := e.Survival(c.x); math.Abs(got-(1-c.want)) > 1e-9 {
			t.Errorf("Survival(%g) = %g", c.x, got)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.F(0.5) != 0 || e.Survival(0.5) != 1 {
		t.Error("empty ECDF misbehaves")
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	if q := e.Quantile(0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := e.Quantile(1); q != 5 {
		t.Errorf("q1 = %g", q)
	}
	if q := e.Quantile(0.5); q != 3 {
		t.Errorf("median = %g", q)
	}
	if q := e.Quantile(0.25); q != 2 {
		t.Errorf("q25 = %g", q)
	}
	// Interpolation between points.
	if q := e.Quantile(0.125); q != 1.5 {
		t.Errorf("q12.5 = %g", q)
	}
}

func TestECDFMonotonicityProperty(t *testing.T) {
	f := func(sample []float64, a, b float64) bool {
		for _, v := range sample {
			if math.IsNaN(v) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		e := NewECDF(sample)
		return e.F(a) <= e.F(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-2) > 1e-9 {
		t.Errorf("std = %g, want 2", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %g/%g", s.Min, s.Max)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
	single := Summarize([]float64{3})
	if single.Std != 0 || single.Mean != 3 || single.Min != 3 || single.Max != 3 {
		t.Errorf("single summary = %+v", single)
	}
}
