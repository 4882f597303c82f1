// Game of Life: the Lab 6 -> Lab 10 journey. A small grid is animated
// with thread regions colored ParaVis-style, the parallel result is
// checked against the serial engine, and a larger grid produces the lab's
// speedup table.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"cs31/internal/life"
	"cs31/internal/paravis"
	"cs31/internal/sweep"
)

func main() {
	// Lab 6: the blinker oscillator from the handout, run serially.
	cfg := life.Oscillator()
	serial, err := cfg.BuildGrid(life.Torus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Lab 6 (serial): blinker for 2 generations")
	vis := paravis.New(false)
	fmt.Print(vis.Render(serial.Bools(), nil))
	serial.Run(2)
	fmt.Println("after 2 generations (back to start):")
	fmt.Print(vis.Render(serial.Bools(), nil))

	// Lab 10: parallel run with thread regions visible, verified against
	// the serial engine. life.Advance picks the engine from the spec: more
	// than one worker runs the parallel engine.
	twoThreads := life.Engine{Workers: 2}
	parallel, err := cfg.BuildGrid(life.Torus)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := life.Advance(context.Background(), parallel, twoThreads, 2); err != nil {
		log.Fatal(err)
	}
	if !parallel.Equal(serial) {
		log.Fatal("parallel result diverged from serial!")
	}
	fmt.Println("\nLab 10 (2 threads): same result, regions colored by owner")
	colorVis := paravis.New(true)
	fmt.Print(colorVis.Render(parallel.Bools(), twoThreads.Owner(parallel)))

	// The lab's measurement: near-linear speedup on a big grid.
	big, err := life.NewGrid(256, 256, life.Torus)
	if err != nil {
		log.Fatal(err)
	}
	big.Randomize(31, 0.3)
	counts := []int{1, 2, 4}
	if runtime.NumCPU() >= 8 {
		counts = append(counts, 8)
	}
	fmt.Printf("\nspeedup on a %dx%d grid, 20 iterations (%d CPUs):\n",
		big.Rows, big.Cols, runtime.NumCPU())
	points, err := sweep.MeasureScaling(context.Background(), counts, func(ctx context.Context, threads int) error {
		_, err := life.Advance(ctx, big.Clone(), life.Engine{Workers: threads}, 20)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("  %2d threads: %10v  speedup %.2fx  efficiency %.0f%%\n",
			p.Threads, p.Elapsed.Round(100_000), p.Speedup, 100*p.Efficiency)
	}
}
