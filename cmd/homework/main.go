// Command homework generates the course's written homework problems with
// instructor answer keys, every solution computed by the corresponding
// simulator.
//
// Usage:
//
//	homework -list
//	homework -topic cache-trace -n 3 -seed 42
//	homework -topic processes -answers=false     # student version
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cs31/internal/homework"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err) // homework.Generate's errors carry the "homework:" prefix
		os.Exit(1)
	}
}

func run() error {
	list := flag.Bool("list", false, "list available topics")
	topic := flag.String("topic", "", "homework topic")
	n := flag.Int("n", 1, "number of problems")
	seed := flag.Int64("seed", 31, "generation seed")
	answers := flag.Bool("answers", true, "include the answer key")
	flag.Parse()

	if *list || *topic == "" {
		fmt.Println("topics:")
		for _, t := range homework.Topics() {
			fmt.Println("  ", t)
		}
		return nil
	}
	probs, err := homework.Generate(*topic, *seed, *n)
	if err != nil {
		return err
	}
	for i, p := range probs {
		fmt.Printf("Problem %d %s\n", i+1, strings.Repeat("=", 50))
		fmt.Println(p.Prompt)
		if *answers {
			fmt.Println("\n--- solution ---")
			fmt.Println(p.Solution)
		}
		fmt.Println()
	}
	return nil
}
