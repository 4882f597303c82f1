// Command survey regenerates the paper's evaluation exhibits: Table I (the
// TCPP topics CS 31 covers) and Figure 1 (upper-level students' Bloom-scale
// self-ratings, from the synthetic cohort documented in DESIGN.md).
//
// Usage:
//
//	survey -table1
//	survey -figure1 -students 120 -seed 2022
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cs31/internal/survey"
)

func main() {
	if err := run(); err != nil {
		// Errors from internal/survey already start with "survey:".
		msg := err.Error()
		if !strings.HasPrefix(msg, "survey:") {
			msg = "survey: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

func run() error {
	table1 := flag.Bool("table1", false, "print Table I")
	figure1 := flag.Bool("figure1", false, "print Figure 1")
	compare := flag.Bool("compare", false, "print the pre/post-course comparison (the planned CS 43 follow-up)")
	students := flag.Int("students", 120, "synthetic cohort size (~60 per surveyed course)")
	seed := flag.Int64("seed", 2022, "cohort seed")
	flag.Parse()

	if *students < 1 {
		return fmt.Errorf("-students %d below 1", *students)
	}
	if !*table1 && !*figure1 && !*compare {
		*table1, *figure1 = true, true
	}
	if *table1 {
		fmt.Println(survey.RenderTable1())
	}
	if *figure1 {
		cohort := survey.SyntheticCohort(*seed, *students)
		stats, err := cohort.Aggregate()
		if err != nil {
			return err
		}
		fmt.Println(survey.RenderFigure1(stats))
		if problems := survey.CheckPaperShape(cohort.Topics, stats); len(problems) > 0 {
			fmt.Fprintln(os.Stderr, "shape check FAILED:")
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "  -", p)
			}
			return fmt.Errorf("reproduction does not match the paper's qualitative findings")
		}
		fmt.Println("shape check: matches the paper's qualitative findings",
			"(all topics recognized; emphasized topics rate deeper; no perfect 4s)")
	}
	if *compare {
		pre := survey.SyntheticCohort(*seed, *students)
		post := survey.PostCourseCohort(pre, *seed+1)
		out, err := survey.CompareCohorts(pre, post)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	return nil
}
