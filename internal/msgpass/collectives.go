package msgpass

import "fmt"

// collFanIn is the collective tree's arity, matching the combining-tree
// discipline of internal/pthread.Barrier: four children per node keeps the
// tree shallow (16 ranks -> 2 levels) while each parent drains at most four
// child messages per phase.
const collFanIn = 4

// Collectives must be called by every rank of the world in the same order
// (the MPI rule). Each call claims the rank's next collective sequence
// number; because the order agrees world-wide, equal sequence numbers name
// the same logical operation, and the negative tag -seq keeps collective
// traffic from ever matching a user Recv.
//
// Every collective is built on the abortable point-to-point layer, so a
// failed rank, a watchdog-detected deadlock, or a canceled RunCtx context
// unwinds the whole tree promptly: the rank adjacent to the fault errors
// first and its silence releases its neighbors through the same fault
// machinery, instead of the collective hanging.
func (c *Comm) collTag() int {
	c.collSeq++
	return -int(c.collSeq)
}

// vrank rotates ranks so the collective's root sits at virtual rank 0; the
// tree is then the standard fanIn-ary heap layout over virtual ranks.
func (c *Comm) vrank(root int) int {
	return (c.rank - root + c.world.size) % c.world.size
}

// unvrank maps a virtual rank back to a real one.
func (c *Comm) unvrank(v, root int) int {
	return (v + root) % c.world.size
}

// parentOf returns the real rank of v's tree parent, or -1 at the root.
func (c *Comm) parentOf(v, root int) int {
	if v == 0 {
		return -1
	}
	return c.unvrank((v-1)/collFanIn, root)
}

// childrenOf appends the real ranks of v's tree children in ascending
// virtual order — the order fan-in phases receive and fan-out phases send,
// which makes every collective's combination order deterministic.
func (c *Comm) childrenOf(v, root int) []int {
	var kids []int
	for i := 1; i <= collFanIn; i++ {
		cv := collFanIn*v + i
		if cv >= c.world.size {
			break
		}
		kids = append(kids, c.unvrank(cv, root))
	}
	return kids
}

// recvColl receives one collective message from source under the
// collective's tag, with Recv's typed check.
func recvColl[T any](c *Comm, source, tag int) (T, error) {
	v, err := c.recvWait(source, tag, nil, 0)
	return typedPayload[T](c, source, tag, v, err)
}

func (c *Comm) checkRoot(op string, root int) error {
	if root < 0 || root >= c.world.size {
		return fmt.Errorf("msgpass: rank %d %s: root %d outside world of %d", c.rank, op, root, c.world.size)
	}
	return nil
}

// Barrier blocks until every rank of the world has entered it: a fan-in
// wave of messages climbs the tree to virtual rank 0, then a release wave
// fans back out — pthread.Barrier's combining tree, with the shared
// arrival counters replaced by child-to-parent messages.
func (c *Comm) Barrier() error {
	c.collectives.Add(1)
	c.lane.Begin(c.world.tn.barrier)
	defer c.lane.End(c.world.tn.barrier)
	tag := c.collTag()
	v := c.vrank(0)
	kids := c.childrenOf(v, 0)
	for _, k := range kids {
		if _, err := c.recvWait(k, tag, nil, 0); err != nil {
			return err
		}
	}
	if p := c.parentOf(v, 0); p >= 0 {
		if err := c.send(p, tag, struct{}{}); err != nil {
			return err
		}
		if _, err := c.recvWait(p, tag, nil, 0); err != nil {
			return err
		}
	}
	for _, k := range kids {
		if err := c.send(k, tag, struct{}{}); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's value down the tree; every rank returns it. The
// value non-root ranks pass is ignored (MPI's recv-buffer convention).
func Bcast[T any](c *Comm, root int, v T) (T, error) {
	if err := c.checkRoot("bcast", root); err != nil {
		var zero T
		return zero, err
	}
	c.collectives.Add(1)
	c.lane.Begin(c.world.tn.bcast)
	defer c.lane.End(c.world.tn.bcast)
	return bcast(c, root, c.collTag(), v)
}

func bcast[T any](c *Comm, root, tag int, v T) (T, error) {
	var zero T
	vr := c.vrank(root)
	if p := c.parentOf(vr, root); p >= 0 {
		var err error
		if v, err = recvColl[T](c, p, tag); err != nil {
			return zero, err
		}
	}
	for _, k := range c.childrenOf(vr, root) {
		if err := c.send(k, tag, v); err != nil {
			return zero, err
		}
	}
	return v, nil
}

// Reduce combines every rank's value with op up the tree and returns the
// result on root (zero T elsewhere). Each node folds its children in
// ascending virtual-rank order, so the combination order is deterministic
// for a fixed world size; op should be associative and commutative if the
// result must not depend on that order (integer sums and maxes qualify).
func Reduce[T any](c *Comm, root int, v T, op func(a, b T) T) (T, error) {
	var zero T
	if err := c.checkRoot("reduce", root); err != nil {
		return zero, err
	}
	if op == nil {
		return zero, fmt.Errorf("msgpass: rank %d reduce: nil op", c.rank)
	}
	c.collectives.Add(1)
	c.lane.Begin(c.world.tn.reduce)
	defer c.lane.End(c.world.tn.reduce)
	return reduce(c, root, c.collTag(), v, op)
}

func reduce[T any](c *Comm, root, tag int, v T, op func(a, b T) T) (T, error) {
	var zero T
	vr := c.vrank(root)
	acc := v
	for _, k := range c.childrenOf(vr, root) {
		got, err := recvColl[T](c, k, tag)
		if err != nil {
			return zero, err
		}
		acc = op(acc, got)
	}
	if p := c.parentOf(vr, root); p >= 0 {
		if err := c.send(p, tag, acc); err != nil {
			return zero, err
		}
		return zero, nil
	}
	return acc, nil
}

// Allreduce is Reduce to rank 0 followed by Bcast from it: every rank
// returns the combined value. It counts as one collective call but claims
// two sequence numbers (one per phase) on every rank.
func Allreduce[T any](c *Comm, v T, op func(a, b T) T) (T, error) {
	var zero T
	if op == nil {
		return zero, fmt.Errorf("msgpass: rank %d allreduce: nil op", c.rank)
	}
	c.collectives.Add(1)
	c.lane.Begin(c.world.tn.allreduce)
	defer c.lane.End(c.world.tn.allreduce)
	redTag, bcastTag := c.collTag(), c.collTag()
	red, err := reduce(c, 0, redTag, v, op)
	if err != nil {
		return zero, err
	}
	return bcast(c, 0, bcastTag, red)
}

// Scatter hands rank i element i of root's values slice (which must have
// exactly world-size elements; non-root ranks may pass nil). Distribution
// is root-direct: at classroom scale splitting payloads down a tree buys
// nothing over the root's size-1 sends, and the fan-in tree stays the
// preserve of the combining collectives.
func Scatter[T any](c *Comm, root int, values []T) (T, error) {
	var zero T
	if err := c.checkRoot("scatter", root); err != nil {
		return zero, err
	}
	c.collectives.Add(1)
	c.lane.Begin(c.world.tn.scatter)
	defer c.lane.End(c.world.tn.scatter)
	tag := c.collTag()
	if c.rank != root {
		return recvColl[T](c, root, tag)
	}
	if len(values) != c.world.size {
		return zero, fmt.Errorf("msgpass: scatter root %d: %d values for world of %d", root, len(values), c.world.size)
	}
	for r, v := range values {
		if r != root {
			if err := c.send(r, tag, v); err != nil {
				return zero, err
			}
		}
	}
	return values[root], nil
}

// Gather collects every rank's value on root, returned in rank order (nil
// on non-root ranks). Like Scatter it is root-direct.
func Gather[T any](c *Comm, root int, v T) ([]T, error) {
	if err := c.checkRoot("gather", root); err != nil {
		return nil, err
	}
	c.collectives.Add(1)
	c.lane.Begin(c.world.tn.gather)
	defer c.lane.End(c.world.tn.gather)
	tag := c.collTag()
	if c.rank != root {
		if err := c.send(root, tag, v); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([]T, c.world.size)
	out[root] = v
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		var err error
		if out[r], err = recvColl[T](c, r, tag); err != nil {
			return nil, err
		}
	}
	return out, nil
}
