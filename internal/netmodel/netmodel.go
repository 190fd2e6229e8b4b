// Package netmodel simulates the cluster interconnect and node disks as
// shared-capacity resources.
//
// Every data movement (block replication, shuffle fetch, DFS read/write) is
// a Flow between two nodes. A remote flow's rate is the min of its fair
// shares at both NICs (rate = min(C/src_flows, C/dst_flows)); flows between
// a node and itself model local disk copies and share the node's disk
// bandwidth. Rates are recomputed whenever a flow starts or finishes at an
// endpoint or an endpoint changes availability, so transfer times respond
// to contention — this is what saturates MOON's small dedicated set at low
// volatile-to-dedicated ratios (the paper's one regression case) and what
// the Algorithm 1 throttler measures.
//
// Rate settling is batched per simulation instant: an endpoint change marks
// the node dirty, and one settle pass — run by a sim.Barrier before the
// clock leaves the instant — recomputes rates once per affected flow
// instead of once per change. Under fan-in (k flows starting at one node in
// one instant) that is O(k) settles instead of the O(k²) the eager
// per-change recompute paid. Zero simulated time passes between the change
// and the flush, so no intermediate rate is ever observable; dirty nodes
// are processed in first-marked order and flows in list order, which keeps
// the floating-point accumulation order of settled bytes — and therefore
// every run byte-identical to the eager schedule. Reads (Consumed,
// TotalBytes, ActiveFlows) and flow completion flush first, so observers
// never see a half-settled instant. The one change that cannot defer is an
// endpoint carrying a due flow — one whose completion, scheduled at an
// earlier instant, fires at this one — which the eager schedule would have
// cascade-finished inside the very call; markDirty finds such flows by
// scanning the node's own flow lists.
//
// Each rate change moves the flow's pending completion event in place
// (sim.Reschedule: no allocation, and no sift when the completion moves
// later), consuming the same event sequence number the cancel-and-schedule
// it replaces would have.
//
// Per-node flow lists and the settle snapshots hold int32 slots into the
// Network's flow slab rather than *Flow, so copying and clearing them runs
// no GC write barriers. A slot freed while a settle pass is on the stack is
// held until the outermost pass returns: an outer snapshot may still name
// it, and reusing it at once would refresh a new flow in the finished
// flow's place.
//
// A flow with an unavailable endpoint makes no progress; if the outage lasts
// longer than the configured stall timeout the flow fails with ErrStalled,
// modeling the client-side timeouts the paper describes for I/O against
// "dead" DataNodes.
package netmodel

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Errors reported to Flow completion callbacks.
var (
	// ErrStalled means an endpoint stayed unavailable past the stall
	// timeout.
	ErrStalled = errors.New("netmodel: transfer stalled by node outage")
	// ErrCanceled means the initiator canceled the flow.
	ErrCanceled = errors.New("netmodel: transfer canceled")
)

// Config sets the physical resource capacities.
type Config struct {
	// NodeBandwidth is each node's NIC capacity in bytes/second
	// (shared by all remote flows touching the node, both directions —
	// a deliberate simplification of 1 GbE full duplex).
	NodeBandwidth float64
	// DiskBandwidth is each node's local disk copy bandwidth in
	// bytes/second, shared by local flows.
	DiskBandwidth float64
	// StallTimeout is how long a flow survives an endpoint outage before
	// failing with ErrStalled.
	StallTimeout float64
}

// DefaultConfig models the paper's testbed fabric: 1 Gb/s Ethernet
// (~117 MB/s payload), commodity disks, and Hadoop-era client timeouts.
func DefaultConfig() Config {
	return Config{
		NodeBandwidth: 117e6,
		DiskBandwidth: 60e6,
		StallTimeout:  30,
	}
}

// Flow is one in-flight transfer.
type Flow struct {
	Src, Dst *cluster.Node
	id       uint64

	remaining  float64
	rate       float64
	lastUpdate float64

	done       func(error)
	complete   func() // the completion callback, bound once per flow
	completion sim.Event
	stall      sim.Event
	finished   bool
	slot       int32 // index in Network.flows while on the flow lists

	// completionAt is the time of the completion event, meaningful while
	// that event is pending.
	completionAt float64
}

// Remaining returns the bytes not yet transferred (settled to the last rate
// change, not the current instant).
func (f *Flow) Remaining() float64 { return f.remaining }

// nodeState tracks the flows touching one node, as slots of Network.flows.
type nodeState struct {
	remote []int32
	local  []int32
	// consumed accumulates bytes moved through this node (both
	// directions), for bandwidth measurement.
	consumed float64
}

// Network simulates all transfers for a cluster.
type Network struct {
	sim    *sim.Simulation
	cfg    Config
	nodes  []*nodeState
	nextID uint64

	// flows is the slab the flow lists index. A finished flow's slot goes
	// to held while a settle pass is on the stack, and to free (its entry
	// set to nil) once none is.
	flows []*Flow
	free  []int32
	held  []int32

	// scratch is a stack of reusable slot buffers for settle iteration
	// (refresh can re-enter the settle pass via finish, so one buffer is
	// not enough; a stack keeps nesting safe without per-event allocation).
	scratch [][]int32

	// dirty queues nodes whose flow sets or availability changed this
	// instant, in first-marked order; inDirty dedups membership. flush
	// drains it once per instant (or on read / at flow completion).
	dirty    []int
	inDirty  []bool
	flushing bool

	// listEpoch counts every mutation that can invalidate a precomputed
	// fair-share rate: flow-list membership changes and mid-pass endpoint
	// marks. The sharded settle phase snapshots it before fanning out and
	// falls back to live rate computation for any flow refreshed after it
	// moves — see maybeShardSettle.
	listEpoch uint64

	// Reusable buffers for the sharded settle phase (see maybeShardSettle).
	shardIDs   []int
	shardOff   []int
	shardRates []float64

	// settleDepth counts settleNode frames on the stack. An endpoint
	// change made while a pass is in progress (a done callback starting a
	// replacement transfer mid-cascade) cannot defer: the enclosing pass
	// will refresh the same flows again after it returns, so a deferred
	// reschedule would land after reschedules the eager per-change
	// recompute issued before it — permuting event seq order among flows
	// that complete at the same future instant.
	settleDepth int

	// TotalBytes counts every byte delivered by completed or partial
	// flows, fleet-wide.
	totalBytes float64

	// Instrument handles (nil without a collector).
	mFlows  *metrics.Counter
	mBytes  *metrics.Counter
	mStalls *metrics.Counter
}

// Instrument registers fabric observability on c: flows started, bytes
// delivered (settled, so partial progress of failed flows counts, matching
// TotalBytes) and stall failures, all time-bucketed.
func (n *Network) Instrument(c *metrics.Collector) {
	if c == nil {
		return
	}
	n.mFlows = c.TimedCounter(metrics.LayerNet, "flows_started", "")
	n.mBytes = c.TimedCounter(metrics.LayerNet, "bytes_delivered", "")
	n.mStalls = c.TimedCounter(metrics.LayerNet, "flow_stalls", "")
}

// New attaches a network to the cluster and subscribes to availability
// transitions of every node. The network registers a simulation barrier so
// the deferred settle pass runs before the clock leaves any instant.
func New(s *sim.Simulation, c *cluster.Cluster, cfg Config) *Network {
	n := &Network{
		sim:     s,
		cfg:     cfg,
		nodes:   make([]*nodeState, len(c.Nodes)),
		inDirty: make([]bool, len(c.Nodes)),
	}
	for i := range n.nodes {
		n.nodes[i] = &nodeState{}
	}
	for _, node := range c.Nodes {
		node.Watch(func(nd *cluster.Node, _ bool) { n.nodeChanged(nd) })
	}
	s.Barrier(n.flush)
	return n
}

// Consumed returns total bytes moved through the node so far (settled).
func (n *Network) Consumed(nodeID int) float64 {
	if nodeID < 0 || nodeID >= len(n.nodes) {
		return 0
	}
	n.syncRead()
	return n.nodes[nodeID].consumed
}

// TotalBytes returns the fleet-wide settled byte count.
func (n *Network) TotalBytes() float64 {
	n.syncRead()
	return n.totalBytes
}

// ActiveFlows returns the number of remote flows currently touching the
// node.
func (n *Network) ActiveFlows(nodeID int) int {
	if nodeID < 0 || nodeID >= len(n.nodes) {
		return 0
	}
	n.syncRead()
	return len(n.nodes[nodeID].remote)
}

// syncRead settles everything an observer must not see pending. Outside a
// settle pass that is a full flush. Inside one (a completion callback
// reading the network mid-pass) the remaining marks are drained in the same
// first-marked order the pass would have used, so the read sees exactly the
// state the eager per-change schedule would have shown at this point —
// including flows that reached zero earlier in the instant, which must
// already be finished and gone from the load counts.
func (n *Network) syncRead() {
	if n.flushing {
		n.drainDirty()
		return
	}
	n.flush()
}

// drainDirty processes pending marks in first-marked order. Entries cleared
// by a nested drain are skipped; marks appended while the drain runs are
// picked up by the same loop. Callers must hold flushing == true.
func (n *Network) drainDirty() {
	for i := 0; i < len(n.dirty); i++ {
		id := n.dirty[i]
		if !n.inDirty[id] {
			continue
		}
		n.inDirty[id] = false
		n.settleNode(id)
	}
}

// Transfer starts moving bytes from src to dst and invokes done exactly once
// with nil on completion or an error on failure. src == dst models a local
// disk copy. Zero-byte transfers complete at the current instant.
func (n *Network) Transfer(src, dst *cluster.Node, bytes float64, done func(error)) *Flow {
	if src == nil || dst == nil {
		panic("netmodel: Transfer with nil endpoint")
	}
	if bytes < 0 {
		panic(fmt.Sprintf("netmodel: negative transfer size %v", bytes))
	}
	f := &Flow{Src: src, Dst: dst, id: n.nextID, remaining: bytes, done: done, lastUpdate: n.sim.Now()}
	n.nextID++
	n.mFlows.IncAt(f.lastUpdate)
	if bytes == 0 {
		f.finished = true
		n.sim.After(0, "net.done0", func() { done(nil) })
		return f
	}
	f.complete = func() { n.finish(f, nil) }
	n.listEpoch++
	n.addSlot(f)
	if f.local() {
		n.nodes[src.ID].local = append(n.nodes[src.ID].local, f.slot)
		n.markDirty(src.ID)
	} else {
		n.nodes[src.ID].remote = append(n.nodes[src.ID].remote, f.slot)
		n.nodes[dst.ID].remote = append(n.nodes[dst.ID].remote, f.slot)
		n.markDirty(src.ID)
		n.markDirty(dst.ID)
	}
	n.checkStall(f)
	return f
}

// Cancel aborts the flow; done receives ErrCanceled at the current instant.
// Canceling a finished flow is a no-op.
func (n *Network) Cancel(f *Flow) {
	if f == nil || f.finished {
		return
	}
	n.finish(f, ErrCanceled)
}

func (f *Flow) local() bool { return f.Src.ID == f.Dst.ID }

// settle charges progress made at the current rate since the last update.
func (n *Network) settle(f *Flow) {
	now := n.sim.Now()
	if f.rate > 0 {
		delta := f.rate * (now - f.lastUpdate)
		if delta > f.remaining {
			delta = f.remaining
		}
		f.remaining -= delta
		n.totalBytes += delta
		n.mBytes.AddAt(now, delta)
		n.nodes[f.Src.ID].consumed += delta
		if !f.local() {
			n.nodes[f.Dst.ID].consumed += delta
		}
	}
	f.lastUpdate = now
}

// currentRate computes the flow's fair-share rate from endpoint load and
// availability.
func (n *Network) currentRate(f *Flow) float64 {
	if !f.Src.Available() || !f.Dst.Available() {
		return 0
	}
	if f.local() {
		cnt := len(n.nodes[f.Src.ID].local)
		if cnt == 0 {
			return 0
		}
		return n.cfg.DiskBandwidth / float64(cnt)
	}
	sc := len(n.nodes[f.Src.ID].remote)
	dc := len(n.nodes[f.Dst.ID].remote)
	if sc == 0 || dc == 0 {
		return 0
	}
	srcShare := n.cfg.NodeBandwidth / float64(sc)
	dstShare := n.cfg.NodeBandwidth / float64(dc)
	if srcShare < dstShare {
		return srcShare
	}
	return dstShare
}

// addSlot gives f a slot of the flow slab, reusing a free one if any.
func (n *Network) addSlot(f *Flow) {
	if k := len(n.free); k > 0 {
		f.slot = n.free[k-1]
		n.free = n.free[:k-1]
		n.flows[f.slot] = f
		return
	}
	f.slot = int32(len(n.flows))
	n.flows = append(n.flows, f)
}

// freeSlot gives back the slot of a flow just taken off the flow lists. A
// settle pass on the stack may still hold the slot in its snapshot, so it is
// held until the outermost pass returns (see endSettle).
func (n *Network) freeSlot(slot int32) {
	if n.settleDepth > 0 {
		n.held = append(n.held, slot)
		return
	}
	n.flows[slot] = nil
	n.free = append(n.free, slot)
}

// beginSettle enters a settle pass over one node: it snapshots the node's
// flow slots, remote then local, into a reusable buffer, since refresh and
// finish mutate the lists during the walk.
func (n *Network) beginSettle(st *nodeState) []int32 {
	var buf []int32
	if k := len(n.scratch); k > 0 {
		buf = n.scratch[k-1][:0]
		n.scratch = n.scratch[:k-1]
	}
	buf = append(buf, st.remote...)
	buf = append(buf, st.local...)
	n.settleDepth++
	return buf
}

// endSettle leaves the pass beginSettle entered. When the outermost pass
// returns, no snapshot names a held slot any more, so the held slots go
// free.
func (n *Network) endSettle(buf []int32) {
	n.scratch = append(n.scratch, buf)
	n.settleDepth--
	if n.settleDepth > 0 {
		return
	}
	for _, slot := range n.held {
		n.freeSlot(slot)
	}
	n.held = n.held[:0]
}

// due reports whether f's completion event fires at this very instant and
// was scheduled before the instant began. A completion is only ever
// scheduled by refresh, right after settle set lastUpdate to the clock, so
// lastUpdate < now means "scheduled at an earlier instant": the flow has
// made progress since, and the eager per-change recompute would find it at
// zero remaining. A flow rescheduled during this instant (a sub-ulp
// completion that rounds to now) has made none, so it is not due.
func (f *Flow) due(now float64) bool {
	return f.completionAt == now && f.lastUpdate < now && f.completion.Pending()
}

// hasDue reports whether any flow touching the node is due (see due).
func (n *Network) hasDue(nodeID int) bool {
	now := n.sim.Now()
	st := n.nodes[nodeID]
	for _, slot := range st.remote {
		if n.flows[slot].due(now) {
			return true
		}
	}
	for _, slot := range st.local {
		if n.flows[slot].due(now) {
			return true
		}
	}
	return false
}

// markDirty queues the node for the next settle pass. Marks keep their
// first-come order — the same order the eager per-change recompute would
// have first touched each node — so the flush replays the identical
// floating-point accumulation sequence.
//
// One case must not defer: a node carrying a due flow, one whose completion
// event fires at this very instant (see due). The eager recompute would
// have found that flow at zero remaining inside this call and
// cascade-finished it before the caller's next statement — canceling its
// pending event, delivering its done callback, and freeing whatever the
// caller tracks through plain state (a shuffle's in-flight slot, say) with
// no intervening read to trigger a flush. For those nodes the pending marks
// drain first (keeping earlier deferred work in accumulation order) and the
// node settles eagerly, exactly as the per-change schedule would have.
func (n *Network) markDirty(nodeID int) {
	n.listEpoch++
	if n.settleDepth > 0 {
		// Mid-pass change: the eager schedule ran its recompute right
		// here, between the enclosing pass's refreshes. Settle inline at
		// the same point. A mark the node may still hold stays queued —
		// the eager schedule also refreshed these flows again at that
		// later touch.
		n.settleNode(nodeID)
		return
	}
	if n.hasDue(nodeID) {
		// See the comment above the function: a flow on this node
		// completes at this very instant and must cascade-finish inside
		// this call. Earlier deferred work drains first to keep its place
		// in the accumulation order.
		n.flush()
		n.settleNode(nodeID)
		return
	}
	if n.inDirty[nodeID] {
		return
	}
	n.inDirty[nodeID] = true
	n.dirty = append(n.dirty, nodeID)
}

// flush drains the dirty queue: one settle pass per marked node at the
// current instant. Nodes marked while the pass runs (flow completions
// cascading into endpoint changes) are appended and drained by the same
// loop. flush reports whether it did any work, which is the contract the
// sim.Barrier uses to re-poll until the instant is quiescent. Re-entrant
// calls (a done callback reading Consumed mid-pass) are no-ops.
func (n *Network) flush() bool {
	if n.flushing || len(n.dirty) == 0 {
		return false
	}
	n.flushing = true
	n.maybeShardSettle()
	n.drainDirty()
	n.dirty = n.dirty[:0]
	n.flushing = false
	return true
}

// Shard-phase thresholds: below these the spawn cost of a parallel phase
// exceeds the rate arithmetic it saves, so small instants stay serial
// (which is byte-identical anyway).
const (
	settleShardMinNodes = 64
	settleShardMinFlows = 256
)

// maybeShardSettle runs the parallel half of a large settle pass: for every
// node marked dirty at flush entry it precomputes each touching flow's
// candidate fair-share rate across the shard pool, then applies the pass
// serially in first-marked order. The phase is a pure read — rates are a
// function of flow-list lengths and endpoint availability, neither of which
// changes while it runs — and all mutation (settled-byte accumulation,
// completion-event cancel/reschedule, metric observations) happens in the
// serial apply, in exactly the order drainDirty uses. Precomputed rates are
// trusted only while listEpoch is unmoved; any mid-apply cascade (a finish,
// a new transfer from a done callback, an endpoint mark) bumps the epoch
// and later refreshes fall back to live currentRate — the same pure
// function — so the fanned pass is byte-identical to the serial one at any
// worker count. Nodes the apply skips stay for drainDirty, which the caller
// runs right after.
func (n *Network) maybeShardSettle() {
	pool := n.sim.Shards()
	if pool.Serial() || len(n.dirty) < settleShardMinNodes {
		return
	}
	// Size the batch: marked nodes at flush entry, and one rate slot per
	// flow touching them (remote then local, the settleNode order).
	ids := n.shardIDs[:0]
	off := n.shardOff[:0]
	flows := 0
	for _, id := range n.dirty {
		if !n.inDirty[id] {
			continue
		}
		st := n.nodes[id]
		ids = append(ids, id)
		off = append(off, flows)
		flows += len(st.remote) + len(st.local)
	}
	n.shardIDs, n.shardOff = ids, off
	if flows < settleShardMinFlows {
		return
	}
	if cap(n.shardRates) < flows {
		n.shardRates = make([]float64, flows)
	}
	rates := n.shardRates[:flows]
	epoch := n.listEpoch
	pool.Run(len(ids), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			st := n.nodes[ids[k]]
			idx := off[k]
			for _, slot := range st.remote {
				rates[idx] = n.currentRate(n.flows[slot])
				idx++
			}
			for _, slot := range st.local {
				rates[idx] = n.currentRate(n.flows[slot])
				idx++
			}
		}
	})
	// Serial apply in first-marked order, flows in list order — the exact
	// accumulation and (at, seq) consumption sequence of the serial drain.
	for k, id := range ids {
		if !n.inDirty[id] {
			continue
		}
		n.inDirty[id] = false
		n.settleNodeRated(id, rates[off[k]:], epoch)
	}
}

// settleNodeRated is settleNode with precomputed candidate rates, valid
// while the network's listEpoch still equals epoch. A stale epoch at entry
// means the node's flow lists no longer match the rate layout, so the plain
// live path runs instead.
func (n *Network) settleNodeRated(nodeID int, rates []float64, epoch uint64) {
	if n.listEpoch != epoch {
		n.settleNode(nodeID)
		return
	}
	buf := n.beginSettle(n.nodes[nodeID])
	for j, slot := range buf {
		f := n.flows[slot]
		if n.listEpoch == epoch {
			n.refresh(f, rates[j])
		} else {
			// A cascade invalidated the precomputed rates; the snapshot
			// still matches the phase-time lists, so positions stay
			// aligned, but the values must be recomputed live.
			n.refresh(f, n.currentRate(f))
		}
	}
	n.endSettle(buf)
}

// settleNode resettles and reschedules every flow touching the node.
func (n *Network) settleNode(nodeID int) {
	buf := n.beginSettle(n.nodes[nodeID])
	for _, slot := range buf {
		f := n.flows[slot]
		n.refresh(f, n.currentRate(f))
	}
	n.endSettle(buf)
}

// refresh settles one flow and reschedules its completion at rate. rate is
// currentRate(f), computed by the caller or precomputed by the parallel
// phase (the listEpoch guard keeps the two equal); everything else — the
// settle and the completion move with its (at, seq) consumption — is one
// path. A flow that keeps moving has its pending completion re-keyed in
// place; one that is done or stalled has it canceled.
func (n *Network) refresh(f *Flow, rate float64) {
	if f.finished {
		return
	}
	n.settle(f)
	f.rate = rate
	if f.remaining <= 1e-6 || rate <= 0 {
		n.sim.Cancel(f.completion)
		f.completion = sim.Event{}
		if f.remaining <= 1e-6 {
			n.finish(f, nil)
		}
		return
	}
	f.completionAt = n.sim.Now() + f.remaining/rate
	if !n.sim.Reschedule(f.completion, f.completionAt) {
		f.completion = n.sim.Schedule(f.completionAt, "net.complete", f.complete)
	}
}

// checkStall arms or disarms the stall-failure timer according to endpoint
// availability.
func (n *Network) checkStall(f *Flow) {
	if f.finished {
		return
	}
	down := !f.Src.Available() || !f.Dst.Available()
	if down && !f.stall.Pending() {
		f.stall = n.sim.After(n.cfg.StallTimeout, "net.stall", func() {
			f.stall = sim.Event{}
			n.finish(f, ErrStalled)
		})
	} else if !down && f.stall.Pending() {
		n.sim.Cancel(f.stall)
		f.stall = sim.Event{}
	}
}

// finish removes the flow and fires its callback. Pending marks flush
// first: any settling the eager schedule would have done before this point
// lands before the flow's own final settle, keeping the accumulation order
// (and possibly finishing f itself — a flow that reached zero earlier this
// instant completes in the flush, exactly as it would have eagerly).
//
// Completion is the one endpoint change that settles eagerly rather than
// marking dirty: sibling flows that hit zero at the same instant must
// cascade-finish inside this call — their completion events canceled before
// they fire, their callbacks delivered before this flow's — to replay the
// exact callback order of the per-change schedule. Deferring the cascade to
// the barrier would fire the siblings' completion events as separate sim
// events and reorder same-instant callbacks.
func (n *Network) finish(f *Flow, err error) {
	if f.finished {
		return
	}
	n.flush()
	if f.finished {
		return
	}
	n.settle(f)
	n.listEpoch++
	f.finished = true
	if err == ErrStalled {
		n.mStalls.IncAt(n.sim.Now())
	}
	n.sim.Cancel(f.completion)
	n.sim.Cancel(f.stall)
	f.completion, f.stall = sim.Event{}, sim.Event{}
	if f.local() {
		removeSlot(&n.nodes[f.Src.ID].local, f.slot)
	} else {
		removeSlot(&n.nodes[f.Src.ID].remote, f.slot)
		removeSlot(&n.nodes[f.Dst.ID].remote, f.slot)
	}
	n.freeSlot(f.slot)
	n.settleNode(f.Src.ID)
	if !f.local() {
		n.settleNode(f.Dst.ID)
	}
	if f.done != nil {
		f.done(err)
	}
}

// nodeChanged reacts to an availability transition: rates collapse to zero
// or recover (settled at the barrier), and stall timers arm/disarm
// immediately. checkStall only reads availability and arms sim events — it
// never mutates the flow lists — so no snapshot is needed.
func (n *Network) nodeChanged(node *cluster.Node) {
	n.markDirty(node.ID)
	st := n.nodes[node.ID]
	for _, slot := range st.remote {
		n.checkStall(n.flows[slot])
	}
	for _, slot := range st.local {
		n.checkStall(n.flows[slot])
	}
}

func removeSlot(s *[]int32, slot int32) {
	for i, x := range *s {
		if x == slot {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}
