package transport

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/simclock"
	"flexlog/internal/types"
)

// LaneQoS configures multi-tenant quality of service on a lane. When
// enabled (TenantOf set), each lane queue holds one bounded FIFO per
// tenant, drained with deficit-round-robin in proportion to Weights, and a
// full tenant queue sheds the message (invoking Shed, so the owner can
// answer with a typed rejection) instead of blocking the dispatcher —
// overload becomes an explicit, attributed signal rather than silent
// queue growth. FIFO order is preserved within a tenant's queue; fairness
// holds across tenants. Without QoS every message belongs to one default
// tenant and a full queue blocks the dispatcher.
type LaneQoS struct {
	// TenantOf extracts the message's tenant. ok=false (internal traffic:
	// order responses, sync, heartbeats) maps to types.DefaultTenant,
	// which always schedules but is never shed ahead of client traffic
	// differently — it is simply one more weighted queue.
	TenantOf func(Message) (types.TenantID, bool)
	// Weights maps tenant → scheduling weight (messages served per DRR
	// round). Missing or zero entries default to 1.
	Weights map[types.TenantID]uint32
	// Shed, when set, is called (outside the scheduler lock) for each
	// message rejected because its tenant queue was full. The lane counts
	// the shed either way; without a callback the message is dropped and
	// the sender discovers it by timeout.
	Shed func(from types.NodeID, msg Message, tenant types.TenantID)
}

// Enabled reports whether QoS scheduling is configured.
func (q LaneQoS) Enabled() bool { return q.TenantOf != nil }

// TenantLaneStats is one tenant's slice of a lane's QoS accounting.
type TenantLaneStats struct {
	Tenant   types.TenantID
	Enqueued uint64 // messages accepted into this tenant's queue
	Shed     uint64 // messages rejected because the queue was full
}

// ---- Weighted-fair tenant queue ----

// pushResult is the outcome of a wfq enqueue attempt.
type pushResult int

const (
	pushOK pushResult = iota
	pushShed
	pushClosed
)

// tenantQ is one tenant's bounded FIFO inside a wfq.
type tenantQ struct {
	id     types.TenantID
	weight int
	items  []laneItem
	head   int // items[head:] are pending; the prefix is already served
	inRing bool
	enq    uint64
	shed   uint64
}

func (q *tenantQ) depth() int { return len(q.items) - q.head }

// wfq is a weighted-fair queue of lane items: per-tenant bounded FIFOs
// drained by deficit-round-robin (quantum = weight, unit cost per
// message). A full tenant queue sheds when shed is set and otherwise makes
// push wait for room. Safe for many producers and many consumers; all
// state is guarded by mu.
type wfq struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	notFull  sync.Cond
	capPer   int  // per-tenant queue bound
	shed     bool // full queue: shed (QoS) or block (no QoS)
	weights  map[types.TenantID]uint32
	queues   map[types.TenantID]*tenantQ
	ring     []*tenantQ // non-empty queues, round-robin order
	cur      int        // ring index currently being served
	credit   int        // remaining quantum of ring[cur]
	closed   bool
}

func newWFQ(capPer int, weights map[types.TenantID]uint32, shed bool) *wfq {
	w := &wfq{
		capPer:  capPer,
		shed:    shed,
		weights: weights,
		queues:  make(map[types.TenantID]*tenantQ),
	}
	w.nonEmpty.L = &w.mu
	w.notFull.L = &w.mu
	return w
}

// push appends the item to its tenant's queue. At capacity it reports
// pushShed (shed mode) or waits for room; after close it reports
// pushClosed, also to a push that was waiting.
func (w *wfq) push(it laneItem, tenant types.TenantID) pushResult {
	w.mu.Lock()
	q := w.queues[tenant]
	if q == nil {
		weight := 1
		if wt, ok := w.weights[tenant]; ok && wt > 0 {
			weight = int(wt)
		}
		q = &tenantQ{id: tenant, weight: weight}
		w.queues[tenant] = q
	}
	for {
		if w.closed {
			w.mu.Unlock()
			return pushClosed
		}
		if q.depth() < w.capPer {
			break
		}
		if w.shed {
			q.shed++
			w.mu.Unlock()
			return pushShed
		}
		w.notFull.Wait()
	}
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		// Compact before append would grow the slice: a queue that never
		// drains empty must not keep its served prefix alive.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, it)
	q.enq++
	if !q.inRing {
		q.inRing = true
		w.ring = append(w.ring, q)
	}
	w.mu.Unlock()
	w.nonEmpty.Signal()
	return pushOK
}

// pop removes the next item under DRR order, blocking while the queue is
// empty. After close it drains the remaining items, then reports false.
func (w *wfq) pop() (laneItem, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if len(w.ring) > 0 {
			if w.cur >= len(w.ring) {
				w.cur = 0
			}
			q := w.ring[w.cur]
			if w.credit <= 0 {
				w.credit = q.weight
			}
			it := q.items[q.head]
			q.items[q.head] = laneItem{} // release references
			q.head++
			w.credit--
			if q.depth() == 0 {
				q.items = q.items[:0]
				q.head = 0
				q.inRing = false
				w.ring = append(w.ring[:w.cur], w.ring[w.cur+1:]...)
				w.credit = 0
			} else if w.credit == 0 {
				w.cur++
			}
			w.notFull.Signal()
			return it, true
		}
		if w.closed {
			return laneItem{}, false
		}
		w.nonEmpty.Wait()
	}
}

func (w *wfq) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.nonEmpty.Broadcast()
	w.notFull.Broadcast()
}

// addTenantStats folds this queue's per-tenant accounting into acc.
func (w *wfq) addTenantStats(acc map[types.TenantID]TenantLaneStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, q := range w.queues {
		ts := acc[id]
		ts.Tenant = id
		ts.Enqueued += q.enq
		ts.Shed += q.shed
		acc[id] = ts
	}
}

// ---- Service lanes ----

// LaneConfig enables a service lane on an endpoint: inbound messages the
// Key function accepts are handed to a pool of workers instead of running
// inline on the single delivery goroutine.
//
// As an endpoint's read lane (Lanes.Read) the key is ignored: one shared
// queue feeds every worker, so classified messages give up their FIFO
// order in exchange for concurrency — safe for FlexLog reads because a
// read's only ordering obligation is against commits already delivered
// when the read was dequeued (the delivery loop still dequeues in arrival
// order). As the write lane (Lanes.Write) each worker owns a queue and a
// key is pinned to queue key mod Workers, so every message of one key is
// processed in arrival order — the invariant the append protocol needs
// (an AppendReq must reach storage before the order response that commits
// its token, and both carry the same color) — while different keys
// proceed in parallel.
//
// Each lane worker models one extra core of the receiving node: with
// latency injection enabled the per-message processing cost is paid on the
// worker, so classified messages overlap where the delivery loop would
// serialize them.
type LaneConfig struct {
	// Workers is the pool size; 0 disables the lane (all traffic inline).
	Workers int
	// Key reports whether a message belongs on the lane and, if so, its
	// shard key (the color for FlexLog mutations).
	Key func(Message) (uint64, bool)
	// Observe, when set, is called after each lane message with the time
	// it waited in the queue and the time its handler ran — the lane_wait
	// stage of the observability layer. Must be cheap and thread-safe.
	Observe func(queueWait, service time.Duration)
	// QoS, when enabled, schedules each queue's tenants weighted-fair and
	// sheds on overflow. See LaneQoS.
	QoS LaneQoS
}

// Enabled reports whether the config describes an active lane.
func (c LaneConfig) Enabled() bool { return c.Workers > 0 && c.Key != nil }

// Per-queue bounds: a full queue backpressures (or, with QoS, sheds at)
// the dispatcher.
const (
	sharedQueueBound = 4096 // the read lane's one shared queue
	keyedQueueBound  = 1024 // each write-lane worker's queue
)

// LaneStats is a point-in-time snapshot of one service lane. PerWorker
// lets the modeled-throughput benchmarks charge each worker for the
// messages it actually processed (on the write lane the busiest worker
// bounds the lane). A disabled lane reports the zero value.
type LaneStats struct {
	Enqueued  uint64        // messages handed to the lane
	Dequeued  uint64        // messages whose handler finished
	MaxDepth  uint64        // high-water mark of the summed queue depth
	Busy      time.Duration // summed wall time workers spent per message
	PerWorker []uint64      // per-worker processed counts
	Shed      uint64        // messages rejected by QoS queue bounds
	Tenants   []TenantLaneStats
}

// Depth returns the instantaneous queue depth (including in-service).
func (s LaneStats) Depth() uint64 { return s.Enqueued - s.Dequeued }

// laneItem is one classified message in flight to a worker.
type laneItem struct {
	from      types.NodeID
	msg       Message
	deliverAt time.Time
	enq       time.Time // stamped only when the lane has an Observe hook
}

// lane is the worker pool behind LaneConfig: cfg.Workers goroutines over
// a slice of weighted-fair queues, worker i draining queue i mod
// len(queues), and a message going to queue key mod len(queues). The
// read lane has one queue; the write lane has one per worker.
type lane struct {
	cfg      LaneConfig
	handler  Handler
	procCost time.Duration
	queues   []*wfq
	wg       sync.WaitGroup

	enqueued  atomic.Uint64
	dequeued  atomic.Uint64
	maxDepth  atomic.Uint64
	busyNs    atomic.Int64
	shed      atomic.Uint64
	perWorker []atomic.Uint64
}

func defaultTenantOf(Message) (types.TenantID, bool) { return types.DefaultTenant, false }

// newLane starts the worker pool over nq queues of capPer items each.
// procCost is the modeled serial receive cost charged per message when
// latency injection is enabled (zero over real transports, which pay
// their cost in actual CPU).
func newLane(cfg LaneConfig, h Handler, procCost time.Duration, nq, capPer int) *lane {
	shed := cfg.QoS.Enabled()
	if !shed {
		cfg.QoS.TenantOf = defaultTenantOf
	}
	l := &lane{
		cfg:       cfg,
		handler:   h,
		procCost:  procCost,
		queues:    make([]*wfq, nq),
		perWorker: make([]atomic.Uint64, cfg.Workers),
	}
	for i := range l.queues {
		l.queues[i] = newWFQ(capPer, cfg.QoS.Weights, shed)
	}
	for i := 0; i < cfg.Workers; i++ {
		l.wg.Add(1)
		go l.worker(i)
	}
	return l
}

// dispatch hands a message the lane's Key accepts to its queue. Without
// QoS a full queue blocks (backpressure on the caller, mirroring a busy
// core); with QoS a full tenant queue sheds the message instead (the Shed
// hook turns it into a typed rejection). It reports false when the message
// is not lane traffic, the lane is closed, or l is nil (a disabled lane) —
// the caller then handles the message inline (where a stopped node's mode
// check drops it).
func (l *lane) dispatch(from types.NodeID, msg Message, deliverAt time.Time) bool {
	if l == nil {
		return false
	}
	key, ok := l.cfg.Key(msg)
	if !ok {
		return false
	}
	it := laneItem{from: from, msg: msg, deliverAt: deliverAt}
	if l.cfg.Observe != nil {
		it.enq = time.Now()
	}
	tenant, _ := l.cfg.QoS.TenantOf(msg)
	switch l.queues[key%uint64(len(l.queues))].push(it, tenant) {
	case pushClosed:
		return false
	case pushShed:
		l.shed.Add(1)
		if l.cfg.QoS.Shed != nil {
			l.cfg.QoS.Shed(from, msg, tenant)
		}
		return true
	}
	// Bump the enqueue counter and the depth high-water mark. The n > dq
	// guard keeps a fast pop (which can finish before this line) from
	// wrapping the unsigned depth into garbage.
	n := l.enqueued.Add(1)
	if dq := l.dequeued.Load(); n > dq {
		depth := n - dq
		for {
			cur := l.maxDepth.Load()
			if depth <= cur || l.maxDepth.CompareAndSwap(cur, depth) {
				break
			}
		}
	}
	return true
}

func (l *lane) worker(i int) {
	defer l.wg.Done()
	q := l.queues[i%len(l.queues)]
	for {
		it, ok := q.pop()
		if !ok {
			return
		}
		l.process(i, it)
	}
}

func (l *lane) process(i int, it laneItem) {
	start := time.Now()
	if !it.deliverAt.IsZero() {
		simclock.SpinUntil(it.deliverAt)
		// The receive-side processing cost is paid here, per worker:
		// this is what a lane buys — classified messages use the node's
		// other cores instead of the delivery loop's one. Skipped when
		// only fault jitter stamped the deadline.
		if simclock.Enabled() {
			simclock.Spin(l.procCost)
		}
	}
	l.handler(it.from, it.msg)
	service := time.Since(start)
	l.busyNs.Add(int64(service))
	l.perWorker[i].Add(1)
	l.dequeued.Add(1)
	if l.cfg.Observe != nil && !it.enq.IsZero() {
		l.cfg.Observe(start.Sub(it.enq), service)
	}
}

// close drains the pool; later dispatch calls report false, and so does a
// dispatch waiting on a full queue. Idempotent; a no-op on a nil lane.
func (l *lane) close() {
	if l == nil {
		return
	}
	for _, q := range l.queues {
		q.close()
	}
	l.wg.Wait()
}

// stats snapshots the lane's counters; a nil lane reports zeros.
func (l *lane) stats() LaneStats {
	if l == nil {
		return LaneStats{}
	}
	per := make([]uint64, len(l.perWorker))
	for i := range l.perWorker {
		per[i] = l.perWorker[i].Load()
	}
	tenants := make(map[types.TenantID]TenantLaneStats)
	for _, q := range l.queues {
		q.addTenantStats(tenants)
	}
	return LaneStats{
		Enqueued:  l.enqueued.Load(),
		Dequeued:  l.dequeued.Load(),
		MaxDepth:  l.maxDepth.Load(),
		Busy:      time.Duration(l.busyNs.Load()),
		PerWorker: per,
		Shed:      l.shed.Load(),
		Tenants: slices.SortedFunc(maps.Values(tenants), func(a, b TenantLaneStats) int {
			return int(a.Tenant) - int(b.Tenant)
		}),
	}
}

// Lanes bundles an endpoint's service lanes: a read lane (one shared
// queue, any-order concurrency) and a keyed write lane (per-key FIFO).
// Either or both may be disabled.
type Lanes struct {
	Read  LaneConfig
	Write LaneConfig
}

// laneSet is the running form of Lanes; a disabled lane is nil.
type laneSet struct{ read, write *lane }

func startLanes(lanes Lanes, h Handler, procCost time.Duration) laneSet {
	var s laneSet
	if lanes.Read.Enabled() {
		s.read = newLane(lanes.Read, h, procCost, 1, sharedQueueBound)
	}
	if lanes.Write.Enabled() {
		s.write = newLane(lanes.Write, h, procCost, lanes.Write.Workers, keyedQueueBound)
	}
	return s
}

// dispatch classifies a message, read class first, then write class. It
// reports false when the message must run inline.
func (s laneSet) dispatch(from types.NodeID, msg Message, deliverAt time.Time) bool {
	return s.read.dispatch(from, msg, deliverAt) || s.write.dispatch(from, msg, deliverAt)
}

func (s laneSet) stats() (read, write LaneStats) { return s.read.stats(), s.write.stats() }

func (s laneSet) close() {
	s.read.close()
	s.write.close()
}

// WithLanes wraps a handler with both lanes for endpoints the Network
// does not manage (e.g. a TCP transport, where the OS already delivers
// per-connection concurrently but the node wants reads off the mutation
// path and colors on their own workers). Classification matches the
// in-process delivery loop. The stats function snapshots both lanes; the
// stop function drains both pools.
func WithLanes(h Handler, lanes Lanes) (wrapped Handler, stats func() (read, write LaneStats), stop func()) {
	s := startLanes(lanes, h, 0)
	wrapped = func(from types.NodeID, msg Message) {
		if !s.dispatch(from, msg, time.Time{}) {
			h(from, msg)
		}
	}
	return wrapped, s.stats, s.close
}
