// Command maze plays Lab 5's binary maze: a generated assembly program
// whose floors each demand a specific input, discovered by disassembling
// and tracing it (asmrun -debug works on the dumped source).
//
// Usage:
//
//	maze -seed 42 -floors 4            # play on stdin
//	maze -seed 42 -source              # dump the assembly to study
//	maze -seed 42 -cheat               # print the answers (instructor mode)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cs31/internal/maze"
)

func main() {
	if err := run(); err != nil {
		// Errors from internal/maze already start with "maze:".
		msg := err.Error()
		if !strings.HasPrefix(msg, "maze:") {
			msg = "maze: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 31, "maze generation seed")
	floors := flag.Int("floors", 4, "number of floors (1-8)")
	source := flag.Bool("source", false, "print the maze's assembly source and exit")
	cheat := flag.Bool("cheat", false, "print the answers and exit")
	flag.Parse()

	m, err := maze.Generate(*seed, *floors)
	if err != nil {
		return err
	}
	if *source {
		fmt.Print(m.Source)
		return nil
	}
	if *cheat {
		for i, f := range m.Floors {
			fmt.Printf("floor %d (%v): %s\n", i, f.Kind, f.Answer)
		}
		return nil
	}

	input, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	status, out, err := m.Run(string(input))
	fmt.Print(out)
	if err != nil {
		return err
	}
	if status == maze.ExitEscaped {
		fmt.Println("you escaped the maze!")
		return nil
	}
	fmt.Println("trapped — study the floors with 'maze -source' and asmrun -debug")
	os.Exit(int(status))
	return nil
}
