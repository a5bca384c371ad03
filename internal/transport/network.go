package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/simclock"
	"flexlog/internal/types"
)

// LinkModel describes the latency of in-process links. The default model is
// calibrated to the paper's testbed: a 10 Gbps datacenter fabric with an
// order-request RTT of ≈110 µs (§9.3), i.e. ≈55 µs one-way per hop.
//
// Delay is pipelined (many messages can be in flight), while ProcCost is
// the serial per-message processing cost at the receiving node — the term
// that bounds a node's message capacity. It is calibrated so a leaf
// sequencer saturates at ≈1.2 M order requests per second, the figure §9.3
// reports, and it is what makes message-heavy protocols (Paxos' quorum
// rounds) pay relative to FlexLog's counter bump (Fig. 4 right).
type LinkModel struct {
	Delay    time.Duration // one-way propagation delay (pipelined)
	ProcCost time.Duration // serial receive-side processing per message
}

// DatacenterLink returns the calibrated 10 Gbps fabric model.
func DatacenterLink() LinkModel {
	return LinkModel{
		Delay:    55 * time.Microsecond,
		ProcCost: 800 * time.Nanosecond, // ≈1.2M msgs/s node capacity
	}
}

// ZeroLink is the latency-free model used by unit tests.
func ZeroLink() LinkModel { return LinkModel{} }

// envelope is one in-flight message.
type envelope struct {
	from      types.NodeID
	msg       Message
	deliverAt time.Time
}

// Network is the in-process transport fabric. It provides registration,
// per-destination FIFO delivery with pipelined delay injection, and fault
// injection for the recovery and chaos tests: partitions and crashed
// endpoints (clean faults) plus per-link message-level fault models
// (drop, duplication, reorder, delay jitter — see FaultModel).
type Network struct {
	model LinkModel

	mu       sync.RWMutex
	nodes    map[types.NodeID]*inprocEndpoint
	cut      map[[2]types.NodeID]bool // symmetric partition set
	isolated map[types.NodeID]bool

	faults   faultState  // message-level fault injection (fault.go)
	faultsOn atomic.Bool // fast-path flag: any fault model installed

	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// NewNetwork creates an empty in-process network with the given link model.
func NewNetwork(model LinkModel) *Network {
	return &Network{
		model:    model,
		nodes:    make(map[types.NodeID]*inprocEndpoint),
		cut:      make(map[[2]types.NodeID]bool),
		isolated: make(map[types.NodeID]bool),
		faults:   faultState{seed: 1, links: make(map[[2]types.NodeID]*linkFaults)},
	}
}

// Register attaches a node with the given handler and starts its delivery
// loop. The handler runs on a single goroutine per endpoint.
func (n *Network) Register(id types.NodeID, h Handler) (Endpoint, error) {
	return n.RegisterWithLane(id, h, LaneConfig{})
}

// RegisterWithLane attaches a node whose endpoint splits inbound traffic
// into two service lanes: messages the lane config classifies (reads,
// subscribes) run on a pool of lane workers, everything else keeps the
// single-goroutine FIFO delivery loop. The delivery loop still dequeues
// in arrival order, so a classified message is only handed to the pool
// after every earlier mutation has been processed — reads can complete
// late, never early. With a zero/disabled lane config this is Register.
func (n *Network) RegisterWithLane(id types.NodeID, h Handler, lane LaneConfig) (Endpoint, error) {
	return n.RegisterWithLanes(id, h, Lanes{Read: lane})
}

// RegisterWithLanes attaches a node with both service lanes: read-class
// messages go to the shared read pool, write-class messages are sharded
// by key (color) onto per-key FIFO workers, and everything else keeps the
// single-goroutine delivery loop. The delivery loop still dequeues in
// arrival order, and a key is pinned to one worker, so messages of one
// color retain their FIFO order end to end.
func (n *Network) RegisterWithLanes(id types.NodeID, h Handler, lanes Lanes) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("transport: node %v already registered", id)
	}
	ep := &inprocEndpoint{net: n, id: id, handler: h}
	if lanes.Read.Enabled() {
		ep.classify = lanes.Read.Classify
		ep.lane = newReadLane(lanes.Read, h, n.model.ProcCost)
	}
	if lanes.Write.Enabled() {
		ep.writeKey = lanes.Write.Key
		ep.wlane = newWriteLane(lanes.Write, h, n.model.ProcCost)
	}
	ep.cond = sync.NewCond(&ep.qmu)
	n.nodes[id] = ep
	go ep.deliveryLoop()
	return ep, nil
}

// Deregister removes a node (used when simulating permanent departure).
func (n *Network) Deregister(id types.NodeID) {
	n.mu.Lock()
	ep := n.nodes[id]
	delete(n.nodes, id)
	n.mu.Unlock()
	if ep != nil {
		ep.Close()
	}
}

// Shutdown closes every registered endpoint: delivery loops exit and
// their lane worker pools drain. Cluster teardown calls this after
// stopping the nodes — without it every stopped cluster would strand
// its delivery and lane goroutines, which is a real leak for processes
// that create clusters in sequence (benchmarks, chaos soaks, tests).
// Endpoints stay in the registry so per-node delivery counters remain
// readable after shutdown; restarting nodes mid-run uses Deregister.
func (n *Network) Shutdown() {
	n.mu.Lock()
	eps := make([]*inprocEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

// Partition cuts the (symmetric) link between a and b.
func (n *Network) Partition(a, b types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[linkKey(a, b)] = true
}

// Heal restores the link between a and b.
func (n *Network) Heal(a, b types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, linkKey(a, b))
}

// Isolate cuts every link of the node (a network partition of one).
func (n *Network) Isolate(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[id] = true
}

// Rejoin reverses Isolate.
func (n *Network) Rejoin(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.isolated, id)
}

// HealAll removes all partitions and isolations.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[[2]types.NodeID]bool)
	n.isolated = make(map[types.NodeID]bool)
}

// Stats returns (delivered, dropped) message counts.
func (n *Network) Stats() (delivered, dropped uint64) {
	return n.delivered.Load(), n.dropped.Load()
}

// NodeDelivered returns the per-node count of messages delivered so far.
// The throughput benchmarks use these counts with the link model's
// per-message processing cost to compute each node's modeled busy time.
func (n *Network) NodeDelivered() map[types.NodeID]uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[types.NodeID]uint64, len(n.nodes))
	for id, ep := range n.nodes {
		out[id] = ep.delivered.Load()
	}
	return out
}

// NodeReadDelivered returns the per-node count of messages delivered via
// the read lane (a subset of NodeDelivered); nodes without a lane report 0.
// The lane-aware throughput model uses this split: lane messages share
// their processing cost across the lane's workers.
func (n *Network) NodeReadDelivered() map[types.NodeID]uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[types.NodeID]uint64, len(n.nodes))
	for id, ep := range n.nodes {
		out[id] = ep.readDelivered.Load()
	}
	return out
}

// LaneStats snapshots the read-lane counters of a node. ok is false when
// the node is unknown or has no lane.
func (n *Network) LaneStats(id types.NodeID) (LaneStats, bool) {
	n.mu.RLock()
	ep := n.nodes[id]
	n.mu.RUnlock()
	if ep == nil || ep.lane == nil {
		return LaneStats{}, false
	}
	return ep.lane.stats(), true
}

// NodeWriteDelivered returns the per-node count of messages delivered via
// the write lane (a subset of NodeDelivered); nodes without a write lane
// report 0. The lane-aware throughput model splits these across workers
// using WriteLaneStats.PerWorker.
func (n *Network) NodeWriteDelivered() map[types.NodeID]uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[types.NodeID]uint64, len(n.nodes))
	for id, ep := range n.nodes {
		out[id] = ep.writeDelivered.Load()
	}
	return out
}

// WriteLaneStats snapshots the write-lane counters of a node. ok is false
// when the node is unknown or has no write lane.
func (n *Network) WriteLaneStats(id types.NodeID) (WriteLaneStats, bool) {
	n.mu.RLock()
	ep := n.nodes[id]
	n.mu.RUnlock()
	if ep == nil || ep.wlane == nil {
		return WriteLaneStats{}, false
	}
	return ep.wlane.stats(), true
}

// Model returns the network's link model.
func (n *Network) Model() LinkModel { return n.model }

func linkKey(a, b types.NodeID) [2]types.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]types.NodeID{a, b}
}

func (n *Network) reachable(from, to types.NodeID) bool {
	if n.isolated[from] || n.isolated[to] {
		return false
	}
	return !n.cut[linkKey(from, to)]
}

// inprocEndpoint is one node's in-process attachment.
type inprocEndpoint struct {
	net            *Network
	id             types.NodeID
	handler        Handler
	classify       func(Message) bool
	lane           *readLane
	writeKey       func(Message) (uint64, bool)
	wlane          *writeLane
	delivered      atomic.Uint64
	readDelivered  atomic.Uint64
	writeDelivered atomic.Uint64

	qmu    sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	closed bool
}

func (e *inprocEndpoint) ID() types.NodeID { return e.id }

func (e *inprocEndpoint) Send(to types.NodeID, msg Message) error {
	n := e.net
	n.mu.RLock()
	dst, ok := n.nodes[to]
	if !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %v", ErrUnknownNode, to)
	}
	if !n.reachable(e.id, to) {
		n.mu.RUnlock()
		n.dropped.Add(1)
		return ErrPartitioned
	}
	n.mu.RUnlock()

	var fd faultDecision
	if lf := n.faultsFor(e.id, to); lf != nil {
		fd = lf.decide()
		if fd.drop {
			// A lossy-link loss, not a partition: the sender sees success
			// (as with a datagram lost on the wire) and relies on its
			// retry/timeout machinery.
			n.dropped.Add(1)
			n.faults.drops.Add(1)
			return nil
		}
		if fd.dup {
			n.faults.dups.Add(1)
		}
		if fd.reorder {
			n.faults.reorders.Add(1)
		}
		if fd.jitter > 0 {
			n.faults.jittered.Add(1)
		}
	}

	env := envelope{from: e.id, msg: msg}
	var delay time.Duration
	if simclock.Enabled() {
		delay = n.model.Delay
	}
	delay += fd.jitter // jitter applies even without the latency model
	if delay > 0 {
		env.deliverAt = time.Now().Add(delay)
	}
	dst.qmu.Lock()
	if dst.closed {
		dst.qmu.Unlock()
		return ErrClosed
	}
	if fd.reorder && len(dst.queue) > 0 {
		// Overtake the last queued message: this (later-sent) envelope is
		// delivered before it — the FIFO relaxation of FaultModel. Never
		// reorders ahead of messages already handed to the handler, so
		// causality is preserved.
		last := len(dst.queue) - 1
		dst.queue = append(dst.queue, dst.queue[last])
		dst.queue[last] = env
	} else {
		dst.queue = append(dst.queue, env)
	}
	if fd.dup {
		dst.queue = append(dst.queue, env)
	}
	dst.cond.Signal()
	dst.qmu.Unlock()
	return nil
}

func (e *inprocEndpoint) Broadcast(tos []types.NodeID, msg Message) error {
	var firstErr error
	for _, to := range tos {
		if err := e.Send(to, msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *inprocEndpoint) Close() error {
	e.qmu.Lock()
	e.closed = true
	e.queue = nil
	e.cond.Broadcast()
	e.qmu.Unlock()
	return nil
}

// deliveryLoop pops envelopes in arrival order, waits out each one's
// delivery deadline (pipelined: deadlines were stamped at send time), and
// invokes the handler. Read-class envelopes are handed to the lane pool
// instead: the lane worker pays the delivery deadline and processing cost,
// so classified messages overlap while mutations stay serial.
func (e *inprocEndpoint) deliveryLoop() {
	if e.lane != nil {
		defer e.lane.close()
	}
	if e.wlane != nil {
		defer e.wlane.close()
	}
	for {
		e.qmu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if e.closed {
			e.qmu.Unlock()
			return
		}
		env := e.queue[0]
		e.queue = e.queue[1:]
		e.qmu.Unlock()

		if e.lane != nil && e.classify(env.msg) && e.lane.dispatch(env.from, env.msg, env.deliverAt) {
			e.net.delivered.Add(1)
			e.delivered.Add(1)
			e.readDelivered.Add(1)
			continue
		}
		if e.wlane != nil {
			if key, ok := e.writeKey(env.msg); ok && e.wlane.dispatch(env.from, env.msg, env.deliverAt, key) {
				e.net.delivered.Add(1)
				e.delivered.Add(1)
				e.writeDelivered.Add(1)
				continue
			}
		}
		if !env.deliverAt.IsZero() {
			simclock.SpinUntil(env.deliverAt)
			// Serial receive-side processing: unlike the propagation
			// delay this is NOT pipelined — it is the node's CPU. Only
			// modeled when latency injection is on (deliverAt may also be
			// set by fault jitter alone).
			if simclock.Enabled() {
				simclock.Spin(e.net.model.ProcCost)
			}
		}
		e.net.delivered.Add(1)
		e.delivered.Add(1)
		e.handler(env.from, env.msg)
	}
}
