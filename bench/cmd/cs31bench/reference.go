package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/signal"
	"sync"
	"syscall"

	"cs31/internal/life"
)

// The host this benchmark runs on is shared, and its speed drifts by 10
// to 20% over seconds to minutes: a fixed CPU loop, a loopback HTTP
// round trip and a whole Life run all slow down and speed up together.
// No estimator inside one run removes that from an absolute time. So the
// end-to-end metrics are relative: each measured slice of work alternates
// with a slice of a reference that no code of the repository takes part
// in, on the same host a fraction of a second apart, and a metric is the
// ratio of the two. A change to labd or the Life engines moves the ratio
// by its full effect; a slow spell of the host moves both sides.
//
//   - Classroom workloads: the reference is a bare net/http server in a
//     process of its own, at labd's GOMAXPROCS, that answers every request
//     with the request's own body. It gets the same kind of load as labd
//     from the same client code: the same requests of the mix, the same
//     pacing, the same closed loop.
//   - Life workloads: the reference is a plain byte-per-cell torus stencil
//     written here, run serially and on lifeWorkers goroutines with a
//     WaitGroup per generation, matching the engines' thread counts.

// referenceHandler answers every request with 200 and the request's body.
func referenceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
}

// checkReference holds a reference reply to the request's body.
func checkReference(in *input, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("reference %s %s: status %d", in.method, in.path, r.status)
	}
	if !bytes.Equal(r.body, in.body) {
		return fmt.Errorf("reference %s %s: reply is not the request body", in.method, in.path)
	}
	return nil
}

// serveReference is `cs31bench reference ADDR`: the reference server's
// process. It serves until SIGTERM, then drains and exits 0.
func serveReference(addr string, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "cs31bench reference: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: referenceHandler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		fmt.Fprintf(stderr, "cs31bench reference: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(stderr, "cs31bench reference: %v\n", err)
		return 1
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "cs31bench reference: %v\n", err)
		return 1
	}
	return 0
}

// stencil is the life workloads' reference: the template board as one
// byte per cell, stepped by a plain torus Life loop in two buffers it
// keeps, so its runs allocate nothing and leave the benchmark's peak RSS
// to the engines.
type stencil struct {
	rows, cols      int
	board, cur, nxt []byte
}

func newStencil(g *life.Grid) *stencil {
	n := g.Rows * g.Cols
	s := &stencil{rows: g.Rows, cols: g.Cols, board: make([]byte, n), cur: make([]byte, n), nxt: make([]byte, n)}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if g.Alive(r, c) {
				s.board[r*g.Cols+c] = 1
			}
		}
	}
	return s
}

// run advances a copy of the board gens generations with the rows split
// over workers goroutines, and returns the final board, valid until the
// next run.
func (s *stencil) run(gens, workers int) []byte {
	cur, next := s.cur, s.nxt
	copy(cur, s.board)
	for g := 0; g < gens; g++ {
		if workers == 1 {
			s.step(cur, next, 0, s.rows)
		} else {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(r0, r1 int) {
					defer wg.Done()
					s.step(cur, next, r0, r1)
				}(w*s.rows/workers, (w+1)*s.rows/workers)
			}
			wg.Wait()
		}
		cur, next = next, cur
	}
	return cur
}

// step writes rows [r0, r1) of the generation after cur into next.
func (s *stencil) step(cur, next []byte, r0, r1 int) {
	rows, cols := s.rows, s.cols
	for r := r0; r < r1; r++ {
		up := cur[((r+rows-1)%rows)*cols:][:cols]
		mid := cur[r*cols:][:cols]
		dn := cur[((r+1)%rows)*cols:][:cols]
		out := next[r*cols:][:cols]
		for c := 0; c < cols; c++ {
			l, rt := c-1, c+1
			if l < 0 {
				l = cols - 1
			}
			if rt == cols {
				rt = 0
			}
			n := up[l] + up[c] + up[rt] + mid[l] + mid[rt] + dn[l] + dn[c] + dn[rt]
			if n == 3 || n == 2 && mid[c] == 1 {
				out[c] = 1
			} else {
				out[c] = 0
			}
		}
	}
}

// equalGrid reports whether a stencil board holds the same cells as g.
func (s *stencil) equalGrid(board []byte, g *life.Grid) bool {
	for r := 0; r < s.rows; r++ {
		for c := 0; c < s.cols; c++ {
			if (board[r*s.cols+c] == 1) != g.Alive(r, c) {
				return false
			}
		}
	}
	return true
}
