package main

import (
	"math"
	"strings"
	"testing"
)

func TestResolveEngine(t *testing.T) {
	cases := []struct {
		engine  string
		threads int
		want    string
		wantErr bool
	}{
		{"", 1, "serial", false},
		{"", 4, "parallel", false},
		{"serial", 1, "serial", false},
		{"parallel", 1, "parallel", false},
		{"dist", 4, "dist", false},
		{"dist", 1, "dist", false},
		{"mpi", 1, "", true},
	}
	for _, c := range cases {
		got, err := resolveEngine(c.engine, c.threads)
		if c.wantErr {
			if err == nil {
				t.Errorf("resolveEngine(%q, %d) accepted, want error", c.engine, c.threads)
			}
			continue
		}
		if err != nil {
			t.Errorf("resolveEngine(%q, %d): %v", c.engine, c.threads, err)
			continue
		}
		if got != c.want {
			t.Errorf("resolveEngine(%q, %d) = %q, want %q", c.engine, c.threads, got, c.want)
		}
	}
}

func TestCheckDensity(t *testing.T) {
	for _, d := range []float64{0, 0.3, 1} {
		if err := checkDensity(d); err != nil {
			t.Errorf("checkDensity(%v): %v", d, err)
		}
	}
	for _, d := range []float64{-1, 2, math.NaN(), -0.0001, math.Nextafter(1, 2), math.Inf(1)} {
		err := checkDensity(d)
		if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("checkDensity(%v) = %v, want an outside [0,1] error", d, err)
		}
	}
}
