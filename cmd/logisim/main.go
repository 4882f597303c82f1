// Command logisim exercises the Lab 3 deliverables without a GUI: it
// builds the gate-level ALU, runs operations on it, verifies it against
// the functional reference, and prints truth tables for the warm-up
// circuits (full adder, sign extender, majority-vote synthesis).
//
// Usage:
//
//	logisim -alu -width 8 -a 0x7f -b 1 -op ADD
//	logisim -verify -width 8           # exhaustive gate-vs-reference check
//	logisim -table adder               # warm-up circuit truth tables
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cs31/internal/circuit"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "logisim:", err)
		os.Exit(1)
	}
}

// checkWidth rejects an ALU -width outside [1, 64], or outside [1, 8]
// under -verify, which runs every pair of operands.
func checkWidth(width int, verify bool) error {
	switch {
	case verify && (width < 1 || width > 8):
		return fmt.Errorf("-width %d outside [1, 8]: -verify runs every pair of operands", width)
	case width < 1 || width > 64:
		return fmt.Errorf("-width %d outside [1, 64]", width)
	}
	return nil
}

func run() error {
	alu := flag.Bool("alu", false, "run one ALU operation")
	verify := flag.Bool("verify", false, "exhaustively verify the gate-level ALU against the reference")
	table := flag.String("table", "", "print a warm-up truth table: adder or mux")
	width := flag.Int("width", 8, "ALU bit width")
	a := flag.Uint64("a", 0, "operand A")
	b := flag.Uint64("b", 0, "operand B")
	opName := flag.String("op", "ADD", "ALU operation: ADD SUB AND OR XOR NOT SHL SHR")
	flag.Parse()

	// All output goes through one buffered writer so truth tables and
	// verify reports are not written syscall-per-line.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	switch {
	case *alu:
		if err := checkWidth(*width, false); err != nil {
			return err
		}
		op, err := parseOp(*opName)
		if err != nil {
			return err
		}
		c := circuit.New()
		unit := circuit.NewALU(c, *width)
		res, flags, err := unit.Run(c, op, *a, *b)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%v(%#x, %#x) = %#x\n", op, *a, *b, res)
		fmt.Fprintf(out, "flags: zero=%v sign=%v carry=%v overflow=%v equal=%v\n",
			flags.Zero, flags.Sign, flags.Carry, flags.Overflow, flags.Equal)
		fmt.Fprintf(out, "(%d gates, %d nets)\n", c.NumGates(), c.NumNets())
		return nil

	case *verify:
		return runVerify(out, *width)

	case *table != "":
		return printTable(out, *table)

	default:
		return fmt.Errorf("choose one of -alu, -verify, -table")
	}
}

// runVerify checks the gate-level ALU against the functional reference on
// every (op, a, b) combination, 64 vectors per settle through the
// bit-parallel batch engine.
func runVerify(out *bufio.Writer, width int) error {
	if err := checkWidth(width, true); err != nil {
		return err
	}
	c := circuit.New()
	unit := circuit.NewALU(c, width)
	batch := c.NewBatch()
	n := uint64(1) << uint(width)
	total := n * n // vectors per op
	as := make([]uint64, circuit.BatchLanes)
	bs := make([]uint64, circuit.BatchLanes)
	res := make([]uint64, circuit.BatchLanes)
	flags := make([]circuit.Flags, circuit.BatchLanes)
	checked := 0
	start := time.Now()
	for op := circuit.ALUOp(0); op < 8; op++ {
		for base := uint64(0); base < total; base += uint64(len(as)) {
			k := len(as)
			if rem := total - base; rem < uint64(k) {
				k = int(rem)
			}
			for l := 0; l < k; l++ {
				as[l] = (base + uint64(l)) / n
				bs[l] = (base + uint64(l)) % n
			}
			if err := unit.RunBatch(batch, op, as[:k], bs[:k], res, flags); err != nil {
				return err
			}
			for l := 0; l < k; l++ {
				want, wf := circuit.RefALU(op, as[l], bs[l], width)
				if res[l] != want || flags[l] != wf {
					return fmt.Errorf("MISMATCH %v(%#x, %#x): gate %#x %+v, ref %#x %+v",
						op, as[l], bs[l], res[l], flags[l], want, wf)
				}
				checked++
			}
		}
	}
	elapsed := time.Since(start)
	rate := float64(checked) / elapsed.Seconds()
	fmt.Fprintf(out, "gate-level ALU matches reference on all %d cases (width %d, %d gates)\n",
		checked, width, c.NumGates())
	fmt.Fprintf(out, "64-lane batch engine: %d vectors in %v (%.0f vectors/sec)\n",
		checked, elapsed.Round(time.Millisecond), rate)
	return nil
}

func parseOp(name string) (circuit.ALUOp, error) {
	for op := circuit.ALUOp(0); op < 8; op++ {
		if strings.EqualFold(op.String(), name) {
			return op, nil
		}
	}
	return 0, fmt.Errorf("unknown ALU op %q", name)
}

func printTable(out *bufio.Writer, kind string) error {
	c := circuit.New()
	switch kind {
	case "adder":
		a := c.Input("a")
		bIn := c.Input("b")
		cin := c.Input("cin")
		sum, cout := circuit.FullAdder(c, a, bIn, cin)
		c.Name("sum", sum)
		c.Name("cout", cout)
		tt, err := c.BuildTruthTable([]string{"a", "b", "cin"}, []string{"sum", "cout"})
		if err != nil {
			return err
		}
		out.WriteString(tt.String())
	case "mux":
		sel := c.Input("sel")
		a := c.Input("a")
		bIn := c.Input("b")
		c.Name("out", circuit.Mux2(c, sel, a, bIn))
		tt, err := c.BuildTruthTable([]string{"sel", "a", "b"}, []string{"out"})
		if err != nil {
			return err
		}
		out.WriteString(tt.String())
	default:
		return fmt.Errorf("unknown table %q (want adder or mux)", kind)
	}
	return nil
}
