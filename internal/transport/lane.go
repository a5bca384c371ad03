package transport

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/simclock"
	"flexlog/internal/types"
)

// LaneQoS configures multi-tenant quality of service on a lane. When
// enabled (TenantOf set), the lane's single FIFO buffer is replaced by
// per-tenant bounded FIFO queues drained with deficit-round-robin in
// proportion to Weights, and a full tenant queue sheds the message
// (invoking Shed, so the owner can answer with a typed rejection) instead
// of blocking the delivery loop — overload becomes an explicit, attributed
// signal rather than silent queue growth. FIFO order is preserved within a
// tenant's queue; fairness holds across tenants.
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
// message). Safe for many producers and many consumers; all state is
// guarded by mu.
type wfq struct {
	mu      sync.Mutex
	cond    *sync.Cond
	capPer  int // per-tenant queue bound
	weights map[types.TenantID]uint32
	queues  map[types.TenantID]*tenantQ
	ring    []*tenantQ // non-empty queues, round-robin order
	cur     int        // ring index currently being served
	credit  int        // remaining quantum of ring[cur]
	closed  bool
}

func newWFQ(capPer int, weights map[types.TenantID]uint32) *wfq {
	w := &wfq{
		capPer:  capPer,
		weights: weights,
		queues:  make(map[types.TenantID]*tenantQ),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// push appends the item to its tenant's queue, reporting pushShed when the
// queue is at capacity and pushClosed after close.
func (w *wfq) push(it laneItem, tenant types.TenantID) pushResult {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return pushClosed
	}
	q := w.queues[tenant]
	if q == nil {
		weight := 1
		if wt, ok := w.weights[tenant]; ok && wt > 0 {
			weight = int(wt)
		}
		q = &tenantQ{id: tenant, weight: weight}
		w.queues[tenant] = q
	}
	if q.depth() >= w.capPer {
		q.shed++
		w.mu.Unlock()
		return pushShed
	}
	q.items = append(q.items, it)
	q.enq++
	if !q.inRing {
		q.inRing = true
		w.ring = append(w.ring, q)
	}
	w.mu.Unlock()
	w.cond.Signal()
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
			return it, true
		}
		if w.closed {
			return laneItem{}, false
		}
		w.cond.Wait()
	}
}

func (w *wfq) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// tenantStats snapshots per-tenant accounting, sorted by tenant id.
func (w *wfq) tenantStats() []TenantLaneStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]TenantLaneStats, 0, len(w.queues))
	for _, q := range w.queues {
		out = append(out, TenantLaneStats{Tenant: q.id, Enqueued: q.enq, Shed: q.shed})
	}
	slices.SortFunc(out, func(a, b TenantLaneStats) int { return int(a.Tenant) - int(b.Tenant) })
	return out
}

// mergeTenantStats folds per-worker tenant stats into one sorted slice.
func mergeTenantStats(parts ...[]TenantLaneStats) []TenantLaneStats {
	acc := make(map[types.TenantID]*TenantLaneStats)
	for _, part := range parts {
		for _, ts := range part {
			if cur := acc[ts.Tenant]; cur != nil {
				cur.Enqueued += ts.Enqueued
				cur.Shed += ts.Shed
			} else {
				c := ts
				acc[ts.Tenant] = &c
			}
		}
	}
	out := make([]TenantLaneStats, 0, len(acc))
	for _, ts := range acc {
		out = append(out, *ts)
	}
	slices.SortFunc(out, func(a, b TenantLaneStats) int { return int(a.Tenant) - int(b.Tenant) })
	return out
}

// LaneConfig enables a read-class service lane on an endpoint: inbound
// messages the classifier accepts are handed to a pool of workers instead
// of running inline on the single delivery goroutine. Mutation traffic
// keeps its per-sender FIFO delivery; classified traffic gives that up in
// exchange for concurrency — safe for FlexLog reads because a read's only
// ordering obligation is against commits already delivered when the read
// was dequeued (the delivery loop still dequeues in arrival order).
//
// Each lane worker models one extra core of the receiving node: with
// latency injection enabled the per-message processing cost is paid on the
// worker, so classified messages overlap where the delivery loop would
// serialize them.
type LaneConfig struct {
	// Workers is the pool size; 0 disables the lane (all traffic inline).
	Workers int
	// Classify reports whether a message may be served on the lane.
	Classify func(Message) bool
	// QueueCap bounds the lane's buffer; a full queue backpressures the
	// delivery loop. 0 uses a default of 4096.
	QueueCap int
	// Observe, when set, is called after each lane message with the time
	// it waited in the queue and the time its handler ran — the lane_wait
	// stage of the observability layer. Must be cheap and thread-safe.
	Observe func(queueWait, service time.Duration)
	// QoS, when enabled, replaces the shared FIFO buffer with per-tenant
	// weighted-fair queues that shed on overflow. See LaneQoS.
	QoS LaneQoS
}

// Enabled reports whether the config describes an active lane.
func (c LaneConfig) Enabled() bool { return c.Workers > 0 && c.Classify != nil }

// LaneStats is a point-in-time snapshot of one endpoint's read lane.
type LaneStats struct {
	Enqueued uint64        // messages handed to the lane
	Dequeued uint64        // messages whose handler finished
	MaxDepth uint64        // high-water mark of the queue depth
	Busy     time.Duration // summed wall time workers spent per message
	Shed     uint64        // messages rejected by QoS queue bounds
	Tenants  []TenantLaneStats
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

// readLane is the worker pool behind LaneConfig. It is shared by the
// in-process endpoints (which also charge the modeled per-message cost on
// the worker) and by the handler wrapper used over custom transports.
type readLane struct {
	cfg      LaneConfig
	handler  Handler
	procCost time.Duration
	ch       chan laneItem
	qos      *wfq // non-nil when cfg.QoS is enabled; replaces ch
	wg       sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	enqueued atomic.Uint64
	dequeued atomic.Uint64
	maxDepth atomic.Uint64
	busyNs   atomic.Int64
	shed     atomic.Uint64
}

// newReadLane starts the worker pool. procCost is the modeled serial
// receive cost charged per message when latency injection is enabled
// (zero over real transports, which pay their cost in actual CPU).
func newReadLane(cfg LaneConfig, h Handler, procCost time.Duration) *readLane {
	cap := cfg.QueueCap
	if cap <= 0 {
		cap = 4096
	}
	l := &readLane{cfg: cfg, handler: h, procCost: procCost}
	if cfg.QoS.Enabled() {
		l.qos = newWFQ(cap, cfg.QoS.Weights)
	} else {
		l.ch = make(chan laneItem, cap)
	}
	for i := 0; i < cfg.Workers; i++ {
		l.wg.Add(1)
		go l.worker()
	}
	return l
}

// dispatch hands a classified message to the pool. Without QoS a full
// queue blocks (backpressure on the caller, mirroring a busy core); with
// QoS a full tenant queue sheds the message instead (the Shed hook turns
// it into a typed rejection). It reports false once the lane is closed —
// the caller then handles the message inline (where a stopped node's mode
// check drops it).
func (l *readLane) dispatch(from types.NodeID, msg Message, deliverAt time.Time) bool {
	it := laneItem{from: from, msg: msg, deliverAt: deliverAt}
	if l.cfg.Observe != nil {
		it.enq = time.Now()
	}
	if l.qos != nil {
		tenant, _ := l.cfg.QoS.TenantOf(msg)
		switch l.qos.push(it, tenant) {
		case pushClosed:
			return false
		case pushShed:
			l.shed.Add(1)
			if l.cfg.QoS.Shed != nil {
				l.cfg.QoS.Shed(from, msg, tenant)
			}
			return true
		}
		l.noteEnqueued()
		return true
	}
	l.closeMu.RLock()
	if l.closed {
		l.closeMu.RUnlock()
		return false
	}
	l.noteEnqueued()
	l.ch <- it
	l.closeMu.RUnlock()
	return true
}

// noteEnqueued bumps the enqueue counter and the depth high-water mark.
// The explicit n > dq guard keeps a racing fast pop (which can make the
// dequeue counter momentarily pass our enqueue snapshot) from wrapping
// the unsigned depth into garbage.
func (l *readLane) noteEnqueued() {
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
}

func (l *readLane) worker() {
	defer l.wg.Done()
	if l.qos != nil {
		for {
			it, ok := l.qos.pop()
			if !ok {
				return
			}
			l.process(it)
		}
	}
	for it := range l.ch {
		l.process(it)
	}
}

func (l *readLane) process(it laneItem) {
	start := time.Now()
	if !it.deliverAt.IsZero() {
		simclock.SpinUntil(it.deliverAt)
		// The receive-side processing cost is paid here, per worker:
		// this is what the read lane buys — classified messages use
		// the node's other cores instead of the delivery loop's one.
		// Skipped when only fault jitter stamped the deadline.
		if simclock.Enabled() {
			simclock.Spin(l.procCost)
		}
	}
	l.handler(it.from, it.msg)
	service := time.Since(start)
	l.busyNs.Add(int64(service))
	l.dequeued.Add(1)
	if l.cfg.Observe != nil && !it.enq.IsZero() {
		l.cfg.Observe(start.Sub(it.enq), service)
	}
}

// close drains the pool; later dispatch calls report false. Idempotent.
func (l *readLane) close() {
	l.closeMu.Lock()
	if l.closed {
		l.closeMu.Unlock()
		return
	}
	l.closed = true
	l.closeMu.Unlock()
	if l.qos != nil {
		l.qos.close()
	} else {
		close(l.ch)
	}
	l.wg.Wait()
}

func (l *readLane) stats() LaneStats {
	s := LaneStats{
		Enqueued: l.enqueued.Load(),
		Dequeued: l.dequeued.Load(),
		MaxDepth: l.maxDepth.Load(),
		Busy:     time.Duration(l.busyNs.Load()),
		Shed:     l.shed.Load(),
	}
	if l.qos != nil {
		s.Tenants = l.qos.tenantStats()
	}
	return s
}

// WithReadLane wraps a handler so classified messages run on a worker
// pool — the read-lane building block for endpoints the Network does not
// manage (e.g. the TCP transport, where the OS already delivers
// per-connection concurrently but the node wants reads off the mutation
// path). The returned stop function drains the pool; the returned stats
// function snapshots lane counters.
func WithReadLane(h Handler, cfg LaneConfig) (wrapped Handler, stats func() LaneStats, stop func()) {
	if !cfg.Enabled() {
		return h, func() LaneStats { return LaneStats{} }, func() {}
	}
	l := newReadLane(cfg, h, 0)
	wrapped = func(from types.NodeID, msg Message) {
		if cfg.Classify(msg) && l.dispatch(from, msg, time.Time{}) {
			return
		}
		h(from, msg)
	}
	return wrapped, l.stats, l.close
}

// ---- Write lane ----

// WriteLaneConfig enables a keyed write lane: mutation messages the Key
// function accepts are sharded by key onto a pool of single-goroutine
// workers. Unlike the read lane's shared queue, each worker owns a FIFO
// channel and a key is pinned to one worker (key mod Workers), so every
// message of one key is processed in arrival order — the invariant the
// append protocol needs (an AppendReq must reach storage before the
// order response that commits its token, and both carry the same color) —
// while different keys proceed in parallel.
type WriteLaneConfig struct {
	// Workers is the pool size; 0 disables the lane.
	Workers int
	// Key reports whether the message belongs on the write lane and, if
	// so, its shard key (the color for FlexLog mutations).
	Key func(Message) (uint64, bool)
	// QueueCap bounds each worker's buffer; a full queue backpressures
	// the delivery loop. 0 uses a default of 1024 per worker.
	QueueCap int
	// Observe, when set, is called after each lane message with the time
	// it waited in its worker's queue and the time its handler ran — the
	// lane_wait stage of the observability layer. Must be cheap and
	// thread-safe.
	Observe func(queueWait, service time.Duration)
	// QoS, when enabled, replaces each worker's FIFO buffer with
	// per-tenant weighted-fair queues that shed on overflow. A key stays
	// pinned to its worker, and a tenant's messages for one key stay FIFO
	// within that worker's tenant queue. See LaneQoS.
	QoS LaneQoS
}

// Enabled reports whether the config describes an active write lane.
func (c WriteLaneConfig) Enabled() bool { return c.Workers > 0 && c.Key != nil }

// WriteLaneStats is a point-in-time snapshot of one endpoint's write lane.
// PerWorker lets the modeled-throughput benchmarks charge each worker for
// the messages it actually processed (the busiest worker bounds the lane).
type WriteLaneStats struct {
	Enqueued  uint64        // messages handed to the lane
	Dequeued  uint64        // messages whose handler finished
	MaxDepth  uint64        // high-water mark of the summed queue depth
	Busy      time.Duration // summed wall time workers spent per message
	PerWorker []uint64      // per-worker processed counts
	Shed      uint64        // messages rejected by QoS queue bounds
	Tenants   []TenantLaneStats
}

// Depth returns the instantaneous queue depth (including in-service).
func (s WriteLaneStats) Depth() uint64 { return s.Enqueued - s.Dequeued }

// writeLane is the keyed worker pool behind WriteLaneConfig.
type writeLane struct {
	cfg      WriteLaneConfig
	handler  Handler
	procCost time.Duration
	chs      []chan laneItem
	qos      []*wfq // one per worker when cfg.QoS is enabled; replaces chs
	wg       sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	enqueued  atomic.Uint64
	dequeued  atomic.Uint64
	maxDepth  atomic.Uint64
	busyNs    atomic.Int64
	shed      atomic.Uint64
	perWorker []atomic.Uint64
}

func newWriteLane(cfg WriteLaneConfig, h Handler, procCost time.Duration) *writeLane {
	cap := cfg.QueueCap
	if cap <= 0 {
		cap = 1024
	}
	l := &writeLane{
		cfg:       cfg,
		handler:   h,
		procCost:  procCost,
		perWorker: make([]atomic.Uint64, cfg.Workers),
	}
	if cfg.QoS.Enabled() {
		l.qos = make([]*wfq, cfg.Workers)
		for i := range l.qos {
			l.qos[i] = newWFQ(cap, cfg.QoS.Weights)
		}
	} else {
		l.chs = make([]chan laneItem, cfg.Workers)
		for i := range l.chs {
			l.chs[i] = make(chan laneItem, cap)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		l.wg.Add(1)
		go l.worker(i)
	}
	return l
}

// dispatch routes the message to the key's worker. Without QoS a full
// worker queue blocks; with QoS a full tenant queue sheds the message
// (the Shed hook turns it into a typed rejection). Reports false once the
// lane is closed (the caller then handles the message inline).
func (l *writeLane) dispatch(from types.NodeID, msg Message, deliverAt time.Time, key uint64) bool {
	it := laneItem{from: from, msg: msg, deliverAt: deliverAt}
	if l.cfg.Observe != nil {
		it.enq = time.Now()
	}
	if l.qos != nil {
		tenant, _ := l.cfg.QoS.TenantOf(msg)
		switch l.qos[key%uint64(len(l.qos))].push(it, tenant) {
		case pushClosed:
			return false
		case pushShed:
			l.shed.Add(1)
			if l.cfg.QoS.Shed != nil {
				l.cfg.QoS.Shed(from, msg, tenant)
			}
			return true
		}
		l.noteEnqueued()
		return true
	}
	l.closeMu.RLock()
	if l.closed {
		l.closeMu.RUnlock()
		return false
	}
	l.noteEnqueued()
	l.chs[key%uint64(len(l.chs))] <- it
	l.closeMu.RUnlock()
	return true
}

// noteEnqueued bumps the enqueue counter and the depth high-water mark
// (see readLane.noteEnqueued for the wrap guard).
func (l *writeLane) noteEnqueued() {
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
}

func (l *writeLane) worker(i int) {
	defer l.wg.Done()
	if l.qos != nil {
		for {
			it, ok := l.qos[i].pop()
			if !ok {
				return
			}
			l.process(i, it)
		}
	}
	for it := range l.chs[i] {
		l.process(i, it)
	}
}

func (l *writeLane) process(i int, it laneItem) {
	start := time.Now()
	if !it.deliverAt.IsZero() {
		simclock.SpinUntil(it.deliverAt)
		// As on the read lane, the serial receive cost is paid on the
		// worker: mutations of different colors use different cores.
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

// close drains the pool; later dispatch calls report false. Idempotent.
func (l *writeLane) close() {
	l.closeMu.Lock()
	if l.closed {
		l.closeMu.Unlock()
		return
	}
	l.closed = true
	l.closeMu.Unlock()
	if l.qos != nil {
		for _, q := range l.qos {
			q.close()
		}
	} else {
		for _, ch := range l.chs {
			close(ch)
		}
	}
	l.wg.Wait()
}

func (l *writeLane) stats() WriteLaneStats {
	per := make([]uint64, len(l.perWorker))
	for i := range l.perWorker {
		per[i] = l.perWorker[i].Load()
	}
	s := WriteLaneStats{
		Enqueued:  l.enqueued.Load(),
		Dequeued:  l.dequeued.Load(),
		MaxDepth:  l.maxDepth.Load(),
		Busy:      time.Duration(l.busyNs.Load()),
		PerWorker: per,
		Shed:      l.shed.Load(),
	}
	if l.qos != nil {
		parts := make([][]TenantLaneStats, len(l.qos))
		for i, q := range l.qos {
			parts[i] = q.tenantStats()
		}
		s.Tenants = mergeTenantStats(parts...)
	}
	return s
}

// Lanes bundles an endpoint's service lanes: a read lane (shared queue,
// any-order concurrency) and a keyed write lane (per-key FIFO). Either or
// both may be disabled.
type Lanes struct {
	Read  LaneConfig
	Write WriteLaneConfig
}

// WithLanes wraps a handler with both lanes for endpoints the Network
// does not manage (e.g. a TCP transport). Classification order matches
// the in-process delivery loop: read class first, then write class, else
// inline. The stop function drains both pools.
func WithLanes(h Handler, lanes Lanes) (wrapped Handler, readStats func() LaneStats, writeStats func() WriteLaneStats, stop func()) {
	readStats = func() LaneStats { return LaneStats{} }
	writeStats = func() WriteLaneStats { return WriteLaneStats{} }
	var rl *readLane
	var wl *writeLane
	if lanes.Read.Enabled() {
		rl = newReadLane(lanes.Read, h, 0)
		readStats = rl.stats
	}
	if lanes.Write.Enabled() {
		wl = newWriteLane(lanes.Write, h, 0)
		writeStats = wl.stats
	}
	if rl == nil && wl == nil {
		return h, readStats, writeStats, func() {}
	}
	wrapped = func(from types.NodeID, msg Message) {
		if rl != nil && lanes.Read.Classify(msg) && rl.dispatch(from, msg, time.Time{}) {
			return
		}
		if wl != nil {
			if key, ok := lanes.Write.Key(msg); ok && wl.dispatch(from, msg, time.Time{}, key) {
				return
			}
		}
		h(from, msg)
	}
	stop = func() {
		if rl != nil {
			rl.close()
		}
		if wl != nil {
			wl.close()
		}
	}
	return wrapped, readStats, writeStats, stop
}
