package msgpass

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := Send(c, 1, 7, []int{1, 2, 3}); err != nil {
				return err
			}
			got, err := Recv[string](c, 1, 9)
			if err != nil {
				return err
			}
			if got != "pong" {
				return fmt.Errorf("got %q, want pong", got)
			}
		case 1:
			got, err := Recv[[]int](c, 0, 7)
			if err != nil {
				return err
			}
			if len(got) != 3 || got[2] != 3 {
				return fmt.Errorf("got %v", got)
			}
			return Send(c, 0, 9, "pong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagMatchingOutOfOrder: the receiver asks for tags in the reverse of
// send order; matching by (source, tag) must hand each Recv its own
// message, queuing early arrivals.
func TestTagMatchingOutOfOrder(t *testing.T) {
	w, err := NewWorld(2, WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for tag := 0; tag < 4; tag++ {
				if err := Send(c, 1, tag, 100+tag); err != nil {
					return err
				}
			}
			return nil
		}
		for tag := 3; tag >= 0; tag-- {
			got, err := Recv[int](c, 0, tag)
			if err != nil {
				return err
			}
			if got != 100+tag {
				return fmt.Errorf("tag %d: got %d, want %d", tag, got, 100+tag)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNonOvertakingSameTag: messages on one (source, tag) pair arrive in
// send order even when other tags interleave.
func TestNonOvertakingSameTag(t *testing.T) {
	const n = 50
	w, err := NewWorld(2, WithCapacity(2*n))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := Send(c, 1, 5, i); err != nil {
					return err
				}
				if err := Send(c, 1, 6, -i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := Recv[int](c, 0, 5)
			if err != nil {
				return err
			}
			if got != i {
				return fmt.Errorf("tag 5 message %d arrived as %d", i, got)
			}
		}
		for i := 0; i < n; i++ {
			got, err := Recv[int](c, 0, 6)
			if err != nil {
				return err
			}
			if got != -i {
				return fmt.Errorf("tag 6 message %d arrived as %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvPollsThenParks pins the two-phase untimed receive: mismatched
// envelopes already queued when Recv starts are pended in arrival order by
// the spin, a match sent only after the receiver has published its wait
// (parked, well past any spin) is still delivered, and later receives take
// the pended envelopes in arrival order.
func TestRecvPollsThenParks(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	err = w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			for _, v := range []string{"first", "second"} {
				if err := Send(c, 0, 1, v); err != nil {
					return err
				}
			}
			close(queued)
			// Send the match only once rank 0's wait-state is published:
			// its spin has run out and it is parked in the select.
			rx := w.comms[0]
			for deadline := time.Now().Add(5 * time.Second); rx.waitSeq.Load()%2 == 0; {
				if time.Now().After(deadline) {
					return fmt.Errorf("rank 0 never parked")
				}
				time.Sleep(time.Millisecond)
			}
			return Send(c, 0, 0, "match")
		case 0:
			<-queued
			got, err := Recv[string](c, 1, 0)
			if err != nil {
				return err
			}
			if got != "match" {
				return fmt.Errorf("Recv(1, 0) = %q, want match", got)
			}
			if len(c.pending) != 2 {
				return fmt.Errorf("%d envelopes pended, want the 2 mismatches", len(c.pending))
			}
			for _, want := range []string{"first", "second"} {
				got, err := Recv[string](c, 1, 1)
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("Recv(1, 1) = %q, want %q (arrival order)", got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorldFitsProcessors pins the rule NewWorld reads once: an untimed
// receive spins long only when every rank can hold a processor, at most
// runtime.GOMAXPROCS(0) of them.
func TestWorldFitsProcessors(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		ranks int
		fits  bool
	}{{1, true}, {procs, true}, {procs + 1, false}} {
		w, err := NewWorld(tc.ranks)
		if err != nil {
			t.Fatal(err)
		}
		if w.fits != tc.fits {
			t.Errorf("NewWorld(%d) at GOMAXPROCS %d: fits = %v, want %v", tc.ranks, procs, w.fits, tc.fits)
		}
	}
}

// TestRendezvousSendWaitsForReceiver: with capacity 0 a Send can only
// complete once the destination is actively draining its inbox, so the
// receiver's entered-Recv flag must already be up when Send returns.
func TestRendezvousSendWaitsForReceiver(t *testing.T) {
	w, err := NewWorld(2, WithCapacity(0))
	if err != nil {
		t.Fatal(err)
	}
	var recvEntered atomic.Bool
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Send(c, 1, 0, 42); err != nil {
				return err
			}
			if !recvEntered.Load() {
				return fmt.Errorf("rendezvous Send returned before the receiver entered Recv")
			}
			return nil
		}
		recvEntered.Store(true)
		_, err := Recv[int](c, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEagerSendDoesNotBlock: with buffered capacity a rank can send to
// itself and pick the message up afterwards — impossible under rendezvous.
func TestEagerSendDoesNotBlock(t *testing.T) {
	w, err := NewWorld(1, WithCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if err := Send(c, 0, 3, "self"); err != nil {
			return err
		}
		got, err := Recv[string](c, 0, 3)
		if err != nil {
			return err
		}
		if got != "self" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatsCounters pins the per-rank counters on a known exchange: rank 0
// sends 3 slices of 8 bytes, rank 1 replies with one 4-byte string.
func TestStatsCounters(t *testing.T) {
	w, err := NewWorld(2, WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := Send(c, 1, i, make([]int64, 1)); err != nil {
					return err
				}
			}
			_, err := Recv[string](c, 1, 0)
			return err
		}
		for i := 0; i < 3; i++ {
			if _, err := Recv[[]int64](c, 0, i); err != nil {
				return err
			}
		}
		return Send(c, 0, 0, "done")
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := w.Stats()
	r0, r1 := ws.PerRank[0], ws.PerRank[1]
	if r0.Sends != 3 || r0.BytesSent != 24 || r0.Recvs != 1 || r0.BytesRecvd != 4 {
		t.Errorf("rank 0 stats %+v", r0)
	}
	if r1.Sends != 1 || r1.BytesSent != 4 || r1.Recvs != 3 || r1.BytesRecvd != 24 {
		t.Errorf("rank 1 stats %+v", r1)
	}
	if ws.Sends != 4 || ws.BytesSent != 28 {
		t.Errorf("world stats %+v", ws)
	}
}

// TestInboxHWM pins the inbox high-water mark: n point-to-point messages
// queued before their receiver drains any read n on the receiver and 0 on
// the sender, while a Gather whose root collects only after every block is
// queued leaves the mark at 0, because collective enqueues are not counted.
func TestInboxHWM(t *testing.T) {
	const n = 5
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < n; i++ {
				if err := Send(c, 0, i, i); err != nil {
					return err
				}
			}
			close(queued)
			return nil
		}
		<-queued
		for i := 0; i < n; i++ {
			if _, err := Recv[int](c, 1, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := w.Stats()
	if ws.PerRank[0].InboxHWM != n || ws.PerRank[1].InboxHWM != 0 || ws.InboxHWM != n {
		t.Errorf("inbox marks %d and %d, world %d; want %d, 0 and %d",
			ws.PerRank[0].InboxHWM, ws.PerRank[1].InboxHWM, ws.InboxHWM, n, n)
	}

	const ranks = 4
	w, err = NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	var sent sync.WaitGroup
	sent.Add(ranks - 1)
	err = w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			defer sent.Done()
			_, err := Gather(c, 0, c.Rank())
			return err
		}
		sent.Wait()
		got, err := Gather(c, 0, 0)
		if err == nil && len(got) != ranks {
			err = fmt.Errorf("gathered %v", got)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws := w.Stats(); ws.InboxHWM != 0 {
		t.Errorf("gather raised the inbox mark to %d, want 0", ws.InboxHWM)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("NewWorld(0) succeeded")
	}
	if _, err := NewWorld(4, WithCapacity(-1)); err == nil {
		t.Error("negative capacity accepted")
	}
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Comm(2); err == nil {
		t.Error("out-of-range Comm accepted")
	}
	if err := w.Run(nil); err == nil {
		t.Error("nil rank function accepted")
	}
	c, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(5, 0, 1); err == nil {
		t.Error("send to rank 5 accepted")
	}
	if err := c.Send(1, -1, 1); err == nil {
		t.Error("negative user tag accepted on send")
	}
	if _, err := c.Recv(-1, 0); err == nil {
		t.Error("recv from rank -1 accepted")
	}
	if _, err := c.Recv(1, -2); err == nil {
		t.Error("negative user tag accepted on recv")
	}
}

// TestTypedRecvMismatch: a payload of the wrong type is an error, not a
// silent zero.
func TestTypedRecvMismatch(t *testing.T) {
	w, err := NewWorld(2, WithCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, 1, 0, "not an int")
		}
		_, err := Recv[int](c, 0, 0)
		if err == nil {
			return fmt.Errorf("type mismatch went undetected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunSurfacesLowestRankError: the error Run returns is rank-ordered,
// not scheduling-ordered.
func TestRunSurfacesLowestRankError(t *testing.T) {
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() >= 2 {
			return fmt.Errorf("boom on rank %d", c.Rank())
		}
		return nil
	})
	if err == nil || err.Error() != "msgpass: rank 2: boom on rank 2" {
		t.Errorf("got %v, want rank 2's error", err)
	}
}

func TestPayloadBytes(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 0},
		{[]uint8{1, 2, 3}, 3},
		{[]int64{1, 2}, 16},
		{"abcd", 4},
		{int64(0), 8},
		{struct{}{}, 0},
	}
	for _, c := range cases {
		if got := payloadBytes(c.v); got != c.want {
			t.Errorf("payloadBytes(%T) = %d, want %d", c.v, got, c.want)
		}
	}
}
