package main

import (
	"flag"
	"math"
	"os"
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

func TestCheckIters(t *testing.T) {
	for _, c := range []struct{ iters, bench int }{{0, 0}, {20, 0}, {1, 4}, {20, 16}} {
		if err := checkIters(c.iters, c.bench); err != nil {
			t.Errorf("checkIters(%d, %d): %v", c.iters, c.bench, err)
		}
	}
	for _, c := range []struct{ iters, bench int }{{-5, 0}, {-1, 2}, {0, 2}} {
		err := checkIters(c.iters, c.bench)
		if err == nil || !strings.Contains(err.Error(), "-iters") {
			t.Errorf("checkIters(%d, %d) = %v, want an error naming -iters", c.iters, c.bench, err)
		}
	}
}

// runLife runs the command with args on a fresh flag set and returns what
// it printed on stdout and the error it returned.
func runLife(t *testing.T, args ...string) (string, error) {
	t.Helper()
	savedArgs, savedFlags, savedStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = savedArgs, savedFlags, savedStdout }()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	os.Args = append([]string{"life"}, args...)
	flag.CommandLine = flag.NewFlagSet("life", flag.ContinueOnError)
	os.Stdout = out
	runErr := run()
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// TestRunThroughAdvance drives the command end to end: the refusals happen
// before anything prints, a serial -visual render stays uncoloured while a
// parallel one colours its thread regions, and one thread runs the serial
// engine whatever -engine says.
func TestRunThroughAdvance(t *testing.T) {
	board := []string{"-rows", "6", "-cols", "6", "-iters", "2"}
	for _, args := range [][]string{
		{"-iters", "-5", "-engine", "dist", "-threads", "2"},
		{"-iters", "0", "-bench", "2"},
		{"-engine", "dist", "-threads", "2", "-visual"},
		{"-engine", "dist", "-threads", "2", "-partition", "cols", "-chaos-delay", "1ms"},
		{"-engine", "parallel", "-threads", "2", "-watchdog", "1s"},
		{"-engine", "dist", "-threads", "1", "-chaos-delay", "1ms"},
	} {
		out, err := runLife(t, append(board, args...)...)
		if err == nil || out != "" {
			t.Errorf("%v: printed %q and returned %v, want a refusal before any output", args, out, err)
		}
	}

	const esc = "\x1b["
	out, err := runLife(t, append(board, "-visual")...)
	if err != nil || !strings.Contains(out, "generation 2 (population") || strings.Contains(out, esc) {
		t.Errorf("serial -visual: printed %q, %v; want two uncoloured generations", out, err)
	}
	out, err = runLife(t, append(board, "-visual", "-threads", "2")...)
	if err != nil || !strings.Contains(out, "generation 2 (population") || !strings.Contains(out, esc) {
		t.Errorf("parallel -visual: printed %q, %v; want two coloured generations", out, err)
	}
	for _, eng := range []string{"parallel", "dist"} {
		out, err := runLife(t, append(board, "-engine", eng, "-threads", "1")...)
		if err != nil || strings.Contains(out, "ran ") || !strings.Contains(out, "after 2 generations") {
			t.Errorf("-engine %s -threads 1: printed %q, %v; want a serial run", eng, out, err)
		}
	}
}
