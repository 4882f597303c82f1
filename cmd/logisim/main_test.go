package main

import (
	"strings"
	"testing"
)

func TestCheckWidth(t *testing.T) {
	for _, c := range []struct {
		width  int
		verify bool
	}{{1, false}, {8, false}, {64, false}, {1, true}, {8, true}} {
		if err := checkWidth(c.width, c.verify); err != nil {
			t.Errorf("checkWidth(%d, %v): %v", c.width, c.verify, err)
		}
	}
	// Each of these used to panic in circuit.NewALU, or (9 under -verify)
	// got a message that did not name the flag.
	for _, c := range []struct {
		width  int
		verify bool
		want   string
	}{
		{0, false, "-width 0 outside [1, 64]"},
		{65, false, "-width 65 outside [1, 64]"},
		{-1, false, "-width -1 outside [1, 64]"},
		{0, true, "-width 0 outside [1, 8]"},
		{9, true, "-width 9 outside [1, 8]"},
	} {
		err := checkWidth(c.width, c.verify)
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("checkWidth(%d, %v) = %v, want a one-line %q error", c.width, c.verify, err, c.want)
		}
	}
}
