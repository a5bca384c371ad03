// Package seq implements FlexLog's ordering layer (§5.2): an n-ary tree of
// sequencer nodes that assign 64-bit sequence numbers of the form
// (epoch<<32)|counter to order requests.
//
// Each sequencer owns one region (color). An order request for color c
// enters the tree at the leaf sequencer of the issuing shard and climbs
// toward the root sequencer of region c, which assigns the SN range; the
// response descends the same path. Sequencers below the owner act as
// aggregators: order requests for the same color that arrive within the
// batching interval are merged into a single upward request for the sum of
// their record counts (§5.2 "To improve throughput…").
//
// The ordering hot path is lock-free (DESIGN.md §14): SN assignment is one
// atomic fetch-add on a packed (epoch<<32)|counter word, token dedup and
// owner-side batch dedup live in striped maps, pending aggregation uses
// per-color MPSC queues, and all accounting is atomic. The global mutex
// survives only on the election/failover slow path (failover.go), which
// swaps the packed word when epochs change. With OrderWorkers > 0 the
// transport delivers order traffic on a keyed write lane (per-color FIFO,
// colors parallel) so concurrent colors never serialize on one goroutine.
//
// Fault tolerance follows §5.2 "Sequencer replication": each sequencer has
// 2f stateless backups replicating only the epoch number. Failure is
// detected by heartbeat silence; the new leader is the backup with the
// highest (epoch, node-id), elected via at-most-once epoch grants; it first
// secures its epoch on a majority of the group, then initializes every
// replica of its region (SeqInit) and only then serves. An old leader that
// cannot reach a majority of backups shuts itself down (split-brain
// avoidance).
package seq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Role is a sequencer node's current role.
type Role int

// Sequencer roles.
const (
	RoleBackup Role = iota
	RoleLeader
	RoleStopped
)

func (r Role) String() string {
	switch r {
	case RoleBackup:
		return "backup"
	case RoleLeader:
		return "leader"
	default:
		return "stopped"
	}
}

// Config parameterizes one sequencer node.
type Config struct {
	ID     types.NodeID
	Region types.ColorID
	Topo   *topology.Topology

	// BatchInterval is the aggregation window for upward order requests
	// (1 µs in the paper's evaluation). Zero still batches whatever is
	// pending when the flusher runs, i.e. it effectively disables the
	// deliberate wait.
	BatchInterval time.Duration
	// HeartbeatInterval is the leader→backup heartbeat period.
	HeartbeatInterval time.Duration
	// FailureTimeout is the silence span after which a failure is assumed
	// (the Δ bound of §4).
	FailureTimeout time.Duration
	// RetryTimeout is how long an aggregated upward request may stay
	// unanswered before it is re-sent (parent failover re-drive).
	RetryTimeout time.Duration
	// TokenCacheSize bounds the token-deduplication map (Alg. 1 line 31).
	TokenCacheSize int
	// StartAsLeader makes this node the initial leader of its group.
	StartAsLeader bool
	// InitialEpoch overrides the starting epoch (default 1). Deployments
	// that restart a whole sequencer group cold must resume above every
	// epoch ever used, or the new leader would re-issue old SNs —
	// cmd/flexlog-server persists the epoch and passes lastEpoch+1 here.
	InitialEpoch types.Epoch
	// TenantOf attributes ordering work to tenants by the color an order
	// request names (qos.ColorMap of the deployment's tenant declarations).
	// Nil disables per-tenant sequencer accounting.
	TenantOf map[types.ColorID]types.TenantID

	// OrderWorkers sizes the keyed write lane order traffic is delivered
	// on: messages for different colors run on different workers while one
	// color stays FIFO on one worker. 0 keeps the single delivery loop.
	OrderWorkers int
	// FlushThreshold is the pending-record count at which a color's queue
	// triggers an urgent flush, skipping the rest of the BatchInterval
	// linger (only when PipelinedFlush is on). 0 uses a default of 256;
	// negative disables urgency entirely.
	FlushThreshold int
	// PipelinedFlush lets the flusher start a new upward round for a color
	// while the previous round is still unanswered, and combines the
	// rounds of multiple colors into a single AggOrderReqBatch frame to
	// the parent. Off, the flusher behaves like the classic one-frame-
	// per-color stage (a batch of one per color; still correct, just not
	// overlapped).
	PipelinedFlush bool
}

// defaultFlushThreshold is the urgent-flush pending-record trigger when
// Config.FlushThreshold is zero.
const defaultFlushThreshold = 256

// DefaultConfig fills the timing knobs with test-friendly values.
func DefaultConfig() Config {
	return Config{
		BatchInterval:     time.Microsecond,
		HeartbeatInterval: 5 * time.Millisecond,
		FailureTimeout:    25 * time.Millisecond,
		RetryTimeout:      50 * time.Millisecond,
		TokenCacheSize:    1 << 20,
		PipelinedFlush:    true,
	}
}

// member is one constituent of a pending/in-flight aggregated batch.
type member struct {
	// Exactly one of req / child is set.
	req   *directReq  // order request from a replica (entry point)
	child *childBatch // merged batch from a child sequencer
	n     uint32
}

// directReq is one item of a replica's OrderReqBatch, with the shard
// membership its answer is broadcast to.
type directReq struct {
	token    types.Token
	shard    types.ShardID
	replicas []types.NodeID
}

type childBatch struct {
	batchID uint64
	from    types.NodeID
}

// inflight tracks an aggregated request sent to the parent. It is stamped
// with the serving epoch it was flushed under; a new local leadership
// clears the inflight table, and the resend loop discards stragglers whose
// epoch no longer matches.
type inflight struct {
	color   types.ColorID
	epoch   types.Epoch
	total   uint32
	members []member
	sentAt  atomic.Int64 // unix nanos of the last (re)send
}

// Stats counts ordering-layer activity.
type Stats struct {
	Assigned     uint64 // SNs issued by this node as region owner
	DirectReqs   uint64 // order requests received from replicas (OrderReqBatch items)
	ReqBatches   uint64 // OrderReqBatch messages received
	ChildReqs    uint64 // aggregated rounds received from children (AggOrderReqBatch items)
	BatchesSent  uint64 // aggregated requests sent to the parent
	Resends      uint64
	Elections    uint64 // leaderships won by this node
	EpochGrants  uint64
	DupTokens    uint64
	DroppedStale uint64

	FlushRounds      uint64 // flusher passes over the pending queues
	UrgentFlushes    uint64 // rounds triggered early by FlushThreshold
	PipelinedBatches uint64 // upward batches sent while a prior round for the same color was unanswered
}

// Sequencer is one ordering-layer node.
type Sequencer struct {
	cfg  Config
	topo *topology.Topology
	ep   transport.Endpoint

	// ready gates message handling on endpoint publication: delivery
	// starts at Register, before the constructor stores s.ep.
	ready atomic.Bool

	// ---- Lock-free hot path (hotpath.go) ----

	snWord      atomic.Uint64 // packed (servingEpoch<<32)|counter; 0 = not serving
	epochMirror atomic.Uint32 // wait-free mirror of epoch for Epoch()/obs
	c           counters

	tokens   [tokenStripes]tokenStripe // entry-side token dedup
	tokenCap int                       // per-stripe FIFO capacity

	pendQ    sync.Map // types.ColorID → *colorQueue
	pendMu   sync.Mutex
	pendList atomic.Pointer[[]*colorQueue]

	aggSeen [aggStripes]aggStripe // owner-side dedup of child batches

	batchSeq atomic.Uint64
	inflight sync.Map // batchID uint64 → *inflight

	urgent         atomic.Bool // a queue crossed FlushThreshold; skip the linger
	flushThreshold int

	// Per-tenant accounting: built once at construction, read-only after.
	tenantTotals  map[types.TenantID]*atomic.Uint64
	tenantByColor map[types.ColorID]*atomic.Uint64

	// ---- Cold path: election/failover state (failover.go) ----

	mu      sync.Mutex
	role    Role
	epoch   types.Epoch
	serving bool // leader finished initialization and serves requests

	grantedEpoch types.Epoch
	grantedTo    types.NodeID
	// lastLeaderHB is the candidacy-suppression clock: reset by leader
	// heartbeats but ALSO by grants and abandoned claims so elections
	// back off. lastLeaderBeat is reset only by an actual current-epoch
	// heartbeat; the stickiness check in onEpochClaim uses it so that a
	// recent grant/abandon is never mistaken for a live leader.
	lastLeaderHB   time.Time
	lastLeaderBeat time.Time
	hbAcks         map[types.NodeID]time.Time
	initAcks       map[types.NodeID]bool
	initEpoch      types.Epoch
	claimStart     time.Time

	stopCh   chan struct{}
	stopped  sync.WaitGroup
	kick     chan struct{} // wakes the flusher
	laneStop func()        // drains handler-wrapped lanes (custom endpoints)
}

type childKey struct {
	from    types.NodeID
	batchID uint64
}

// seqWriteClass keys order traffic onto the write lane by color: one
// color stays FIFO on one worker while colors run in parallel. A
// multi-color aggregation frame hashes by its first item's color, so a
// lone round lands where its color's other traffic does; rounds are
// independent (each owns its batch id and SN range), so a combined frame
// needs no ordering against them. Election and heartbeat traffic, and
// empty frames, stay on the inline delivery path.
func seqWriteClass(msg transport.Message) (uint64, bool) {
	switch m := msg.(type) {
	case proto.OrderReqBatch:
		return uint64(m.Color), true
	case proto.AggOrderReqBatch:
		if len(m.Items) > 0 {
			return uint64(m.Items[0].Color), true
		}
	case proto.AggOrderRespBatch:
		if len(m.Items) > 0 {
			return uint64(m.Items[0].Color), true
		}
	}
	return 0, false
}

// lanes builds the transport lane layout for this sequencer.
func (s *Sequencer) lanes() transport.Lanes {
	return transport.Lanes{
		Write: transport.WriteLaneConfig{
			Workers: s.cfg.OrderWorkers,
			Key:     seqWriteClass,
		},
	}
}

// New creates the sequencer and registers it on the in-process network.
func New(cfg Config, net *transport.Network) (*Sequencer, error) {
	s := newSequencer(cfg)
	var (
		ep  transport.Endpoint
		err error
	)
	if cfg.OrderWorkers > 0 {
		ep, err = net.RegisterWithLanes(cfg.ID, s.handle, s.lanes())
	} else {
		ep, err = net.Register(cfg.ID, s.handle)
	}
	if err != nil {
		return nil, err
	}
	s.ep = ep
	s.ready.Store(true)
	s.start()
	return s, nil
}

// NewWithEndpoint creates the sequencer over an existing endpoint
// constructor (used for TCP deployments). attach must register s.Handle as
// the message handler and return the endpoint.
func NewWithEndpoint(cfg Config, attach func(h transport.Handler) (transport.Endpoint, error)) (*Sequencer, error) {
	s := newSequencer(cfg)
	h := transport.Handler(s.handle)
	if cfg.OrderWorkers > 0 {
		wrapped, _, _, stop := transport.WithLanes(h, s.lanes())
		h = wrapped
		s.laneStop = stop
	}
	ep, err := attach(h)
	if err != nil {
		if s.laneStop != nil {
			s.laneStop()
		}
		return nil, err
	}
	s.ep = ep
	s.ready.Store(true)
	s.start()
	return s, nil
}

func newSequencer(cfg Config) *Sequencer {
	if cfg.TokenCacheSize <= 0 {
		cfg.TokenCacheSize = 1 << 20
	}
	s := &Sequencer{
		cfg:    cfg,
		topo:   cfg.Topo,
		hbAcks: make(map[types.NodeID]time.Time),
		stopCh: make(chan struct{}),
		kick:   make(chan struct{}, 1),
	}
	s.tokenCap = cfg.TokenCacheSize / tokenStripes
	if s.tokenCap < 1 {
		s.tokenCap = 1
	}
	for i := range s.tokens {
		s.tokens[i].m = make(map[types.Token]tokenEntry)
	}
	for i := range s.aggSeen {
		s.aggSeen[i].m = make(map[childKey]types.SN)
	}
	switch {
	case cfg.FlushThreshold > 0:
		s.flushThreshold = cfg.FlushThreshold
	case cfg.FlushThreshold == 0:
		s.flushThreshold = defaultFlushThreshold
	default:
		s.flushThreshold = 0 // disabled
	}
	s.buildTenantCounters()
	epoch := types.Epoch(1)
	if cfg.InitialEpoch > 0 {
		epoch = cfg.InitialEpoch
	}
	if cfg.StartAsLeader {
		s.role = RoleLeader
		s.setEpochLocked(epoch)
		s.beginServingLocked()
	} else {
		s.role = RoleBackup
		s.setEpochLocked(epoch)
		s.lastLeaderHB = time.Now()
	}
	return s
}

func (s *Sequencer) start() {
	s.stopped.Add(2)
	go s.flusherLoop()
	go s.timerLoop()
}

// ID returns this node's id.
func (s *Sequencer) ID() types.NodeID { return s.cfg.ID }

// Region returns the color this sequencer group owns.
func (s *Sequencer) Region() types.ColorID { return s.cfg.Region }

// Role returns the node's current role.
func (s *Sequencer) Role() Role {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role
}

// Epoch returns the node's current epoch (wait-free).
func (s *Sequencer) Epoch() types.Epoch {
	return types.Epoch(s.epochMirror.Load())
}

// Serving reports whether the node is an initialized, active leader
// (wait-free: the packed SN word's epoch half is nonzero exactly while
// the node serves).
func (s *Sequencer) Serving() bool {
	return s.servingEpoch() != 0
}

// Stats returns a snapshot of the counters (wait-free: plain atomic
// loads, so /metrics scrapes can never stall the ordering path).
func (s *Sequencer) Stats() Stats {
	return s.c.snapshot()
}

// TenantOrdered snapshots the per-tenant ordered-record counters (nil
// when per-tenant accounting is off). Wait-free: the tenant table is
// immutable after construction and each counter is one atomic load.
func (s *Sequencer) TenantOrdered() map[types.TenantID]uint64 {
	if s.tenantTotals == nil {
		return nil
	}
	out := make(map[types.TenantID]uint64, len(s.tenantTotals))
	for t, c := range s.tenantTotals {
		if v := c.Load(); v > 0 {
			out[t] = v
		}
	}
	return out
}

// Stop terminates the node's background loops (graceful shutdown).
func (s *Sequencer) Stop() {
	s.mu.Lock()
	if s.role == RoleStopped {
		s.mu.Unlock()
		return
	}
	s.role = RoleStopped
	s.stopServingLocked()
	close(s.stopCh)
	s.mu.Unlock()
	s.stopped.Wait()
	if s.laneStop != nil {
		s.laneStop()
	}
}

// Crash simulates a crash failure: the node stops processing and emitting
// all messages. Unlike Stop it is meant to be paired with network
// isolation in tests.
func (s *Sequencer) Crash() { s.Stop() }

// handle dispatches one inbound message. Messages racing the constructor
// (delivery starts at Register, before the endpoint is published) are
// dropped; every protocol above re-drives lost messages anyway.
func (s *Sequencer) handle(from types.NodeID, msg transport.Message) {
	if !s.ready.Load() {
		return
	}
	switch m := msg.(type) {
	case proto.OrderReqBatch:
		s.onOrderReqBatch(m)
	case proto.AggOrderReqBatch:
		s.onAggOrderReqBatch(m)
	case proto.AggOrderRespBatch:
		s.onAggOrderRespBatch(m)
	case proto.SeqHeartbeat:
		s.onHeartbeat(m)
	case proto.SeqHeartbeatAck:
		s.onHeartbeatAck(m)
	case proto.EpochClaim:
		s.onEpochClaim(m)
	case proto.EpochGrant:
		s.onEpochGrant(m)
	case proto.EpochReject:
		s.onEpochReject(m)
	case proto.SeqInitAck:
		s.onSeqInitAck(m)
	case proto.ReplicaHeartbeat:
		// Replica liveness; sequencers do not act on it beyond receipt.
	}
}

// ---- Order request path (lock-free) ----

// onOrderReqBatch handles a replica's order requests: all items share one
// color and one shard, and — on the owner — are answered with a single
// OrderRespBatch broadcast to the shard (Alg. 1 lines 32–35). Duplicate
// tokens follow one rule: an already-assigned item's cached assignment is
// re-broadcast to the shard with the fresh ones, and an item still pending
// in a batch gets no reply (the owner's answer will reach the shard). The
// re-broadcast is redundancy the shard relies on: every replica sends its
// own request for a token, so a replica that missed the first broadcast
// (and whose own request is late) still hears the assignment from a
// peer's. One that hears nothing requests the token again after a
// sequencer failover, and the new epoch, with no dedup memory, assigns a
// second SN that its peers ignore. Fresh items on a non-owner are
// aggregated upward as individual members (Alg. 1 line 37, merged per
// §5.2) so the range split on the way down is per token.
func (s *Sequencer) onOrderReqBatch(m proto.OrderReqBatch) {
	se := s.servingEpoch()
	if se == 0 {
		s.c.droppedStale.Add(1)
		return
	}
	s.c.reqBatches.Add(1)
	s.c.directReqs.Add(uint64(len(m.Items)))
	var nTotal uint64
	for _, it := range m.Items {
		nTotal += uint64(it.NRecords)
	}
	s.noteTenant(m.Color, nTotal)
	owner := m.Color == s.cfg.Region
	var answers []proto.OrderRespItem // owner assignments and already-assigned retries
	for _, it := range m.Items {
		st := s.tokenStripeFor(it.Token)
		st.mu.Lock()
		if e, ok := st.lookup(it.Token, se); ok {
			st.mu.Unlock()
			s.c.dupTokens.Add(1)
			if e.assigned {
				answers = append(answers, proto.OrderRespItem{Token: it.Token, LastSN: e.lastSN, NRecords: it.NRecords})
			}
			continue
		}
		if owner {
			last, ok := s.assignFast(it.NRecords)
			if !ok {
				st.mu.Unlock()
				s.c.droppedStale.Add(1)
				continue
			}
			st.remember(it.Token, tokenEntry{epoch: types.Epoch(last.Epoch()), assigned: true, lastSN: last}, s.tokenCap)
			st.mu.Unlock()
			answers = append(answers, proto.OrderRespItem{Token: it.Token, LastSN: last, NRecords: it.NRecords})
			continue
		}
		st.remember(it.Token, tokenEntry{epoch: se}, s.tokenCap)
		st.mu.Unlock()
		req := &directReq{token: it.Token, shard: m.Shard, replicas: m.Replicas}
		s.enqueue(m.Color, member{req: req, n: it.NRecords}, se)
	}
	if len(answers) > 0 {
		s.ep.Broadcast(m.Replicas, proto.OrderRespBatch{Color: m.Color, Items: answers})
	}
}

// onAggOrderReqBatch handles a child's upward rounds (one or several
// colors flushed in one frame). Items this node can answer now — owner
// assignments and dup resends — are returned in a single AggOrderRespBatch;
// the rest are enqueued toward this node's own parent.
func (s *Sequencer) onAggOrderReqBatch(m proto.AggOrderReqBatch) {
	var items []proto.AggOrderRespItem
	for _, it := range m.Items {
		if resp, ok := s.handleAggItem(m.From, it.Color, it.BatchID, it.Total); ok {
			items = append(items, resp)
		}
	}
	if len(items) > 0 {
		s.ep.Send(m.From, proto.AggOrderRespBatch{From: s.cfg.ID, Items: items})
	}
}

// handleAggItem processes one aggregated child request. ok=true returns
// the response this node can give immediately (owner assignment or dedup
// replay); ok=false means the item was enqueued upward or dropped.
func (s *Sequencer) handleAggItem(from types.NodeID, color types.ColorID, batchID uint64, total uint32) (proto.AggOrderRespItem, bool) {
	se := s.servingEpoch()
	if se == 0 {
		s.c.droppedStale.Add(1)
		return proto.AggOrderRespItem{}, false
	}
	s.c.childReqs.Add(1)
	key := childKey{from: from, batchID: batchID}
	ag := s.aggStripeFor(key)
	ag.mu.Lock()
	if last, ok := ag.m[key]; ok {
		// Duplicate resend of a batch we already answered.
		ag.mu.Unlock()
		return proto.AggOrderRespItem{Color: color, BatchID: batchID, LastSN: last}, true
	}
	if color == s.cfg.Region {
		// The stripe lock spans assign+record so a racing duplicate can
		// never burn a second range for the same child batch.
		last, ok := s.assignFast(total)
		if !ok {
			ag.mu.Unlock()
			s.c.droppedStale.Add(1)
			return proto.AggOrderRespItem{}, false
		}
		ag.m[key] = last
		ag.mu.Unlock()
		return proto.AggOrderRespItem{Color: color, BatchID: batchID, LastSN: last}, true
	}
	ag.mu.Unlock()
	s.enqueue(color, member{child: &childBatch{batchID: batchID, from: from}, n: total}, se)
	return proto.AggOrderRespItem{}, false
}

// onAggOrderRespBatch unpacks a parent's answers.
func (s *Sequencer) onAggOrderRespBatch(m proto.AggOrderRespBatch) {
	for _, it := range m.Items {
		s.onAggOrderResp(it)
	}
}

// onAggOrderResp splits one answered round's range across its members.
func (s *Sequencer) onAggOrderResp(m proto.AggOrderRespItem) {
	v, ok := s.inflight.LoadAndDelete(m.BatchID)
	if !ok {
		return
	}
	inf := v.(*inflight)
	s.queueFor(inf.color).outstanding.Add(-1)
	// Split the assigned range [last-total+1, last] across the members in
	// order (§5.2: "assigns all SNs in the range … which are distributed
	// to their respective origin").
	running := m.LastSN - types.SN(inf.total)
	// Direct members are grouped per replica set so the downward leg is
	// batched too: one OrderRespBatch broadcast per shard in the window.
	// The grouping key is the destination set itself (not the shard id), so
	// requests that leave the shard field unset — ordering-only drivers —
	// still each reach their own requester.
	type shardOut struct {
		replicas []types.NodeID
		items    []proto.OrderRespItem
	}
	var groupOrder []string
	byGroup := make(map[string]*shardOut)
	for _, mem := range inf.members {
		running += types.SN(mem.n)
		if mem.req != nil {
			st := s.tokenStripeFor(mem.req.token)
			st.mu.Lock()
			if e, ok := st.m[mem.req.token]; ok && e.epoch == inf.epoch && !e.assigned {
				st.m[mem.req.token] = tokenEntry{epoch: e.epoch, assigned: true, lastSN: running}
			}
			st.mu.Unlock()
			key := replicaSetKey(mem.req.shard, mem.req.replicas)
			so := byGroup[key]
			if so == nil {
				so = &shardOut{replicas: mem.req.replicas}
				byGroup[key] = so
				groupOrder = append(groupOrder, key)
			}
			so.items = append(so.items, proto.OrderRespItem{Token: mem.req.token, LastSN: running, NRecords: mem.n})
		} else {
			s.ep.Send(mem.child.from, proto.AggOrderRespBatch{From: s.cfg.ID, Items: []proto.AggOrderRespItem{
				{Color: inf.color, BatchID: mem.child.batchID, LastSN: running},
			}})
		}
	}
	for _, key := range groupOrder {
		so := byGroup[key]
		s.ep.Broadcast(so.replicas, proto.OrderRespBatch{Color: inf.color, Items: so.items})
	}
}

// replicaSetKey builds the response-grouping key for one order request's
// destination set.
func replicaSetKey(shard types.ShardID, replicas []types.NodeID) string {
	b := make([]byte, 0, 4+4*len(replicas))
	b = append(b, byte(shard), byte(shard>>8), byte(shard>>16), byte(shard>>24))
	for _, id := range replicas {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// enqueue appends one member to color's pending queue and wakes the
// flusher; crossing FlushThreshold flags the round urgent so the flusher
// skips the remainder of its linger window.
func (s *Sequencer) enqueue(color types.ColorID, m member, se types.Epoch) {
	q := s.queueFor(color)
	q.push(m, se)
	if s.cfg.PipelinedFlush && s.flushThreshold > 0 && q.nrec.Load() >= int64(s.flushThreshold) {
		if s.urgent.CompareAndSwap(false, true) {
			s.c.urgentFlushes.Add(1)
		}
	}
	s.kickFlusher()
}

func (s *Sequencer) kickFlusher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// flusherLoop merges pending members per color and sends them upward every
// BatchInterval; an urgent flag (queue crossed FlushThreshold) cuts the
// window short so a loaded leaf pipelines rounds back-to-back.
func (s *Sequencer) flusherLoop() {
	defer s.stopped.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.kick:
		}
		if w := s.cfg.BatchInterval; w > 0 && !s.urgent.Load() {
			// The aggregation window: requests arriving in this interval
			// are merged (§5.2). Use stepped sleeps for ≥1ms windows and a
			// spin for microsecond ones, re-checking urgency either way.
			start := time.Now()
			if w >= time.Millisecond {
				for {
					left := w - time.Since(start)
					if left <= 0 || s.urgent.Load() {
						break
					}
					if left > 200*time.Microsecond {
						left = 200 * time.Microsecond
					}
					time.Sleep(left)
				}
			} else {
				for time.Since(start) < w && !s.urgent.Load() {
					runtime.Gosched() // let requests join the window
				}
			}
		}
		s.urgent.Store(false)
		s.flushPending()
	}
}

// flushPending drains every pending queue and sends the aggregated rounds
// upward — one AggOrderReqBatch per color, or, with PipelinedFlush, a
// single AggOrderReqBatch combining all colors of the round. It never takes s.mu:
// staleness is decided per member by comparing its enqueue epoch against
// the serving epoch, which also covers the not-leader case (serving epoch
// 0 matches no member).
func (s *Sequencer) flushPending() {
	s.c.flushRounds.Add(1)
	se := s.servingEpoch()
	parent, hasParent := s.parentLeader()
	var items []proto.AggOrderItem
	for _, q := range s.pendingQueues() {
		var members []member
		var total uint32
		for {
			m, e, ok := q.pop()
			if !ok {
				break
			}
			if se == 0 || e != se {
				// Enqueued under a dead term (or we are no longer serving):
				// drop; replicas re-drive.
				s.c.droppedStale.Add(1)
				continue
			}
			members = append(members, m)
			total += m.n
		}
		if len(members) == 0 {
			continue
		}
		if !hasParent {
			// No parent (we are the tree root) yet the color is not ours:
			// misrouted; drop, replicas will retry.
			s.c.droppedStale.Add(uint64(len(members)))
			continue
		}
		id := s.batchSeq.Add(1)
		inf := &inflight{color: q.color, epoch: se, total: total, members: members}
		inf.sentAt.Store(time.Now().UnixNano())
		if q.outstanding.Add(1) > 1 {
			s.c.pipelinedBatches.Add(1)
		}
		s.inflight.Store(id, inf)
		s.c.batchesSent.Add(1)
		it := proto.AggOrderItem{Color: q.color, BatchID: id, Total: total}
		if !s.cfg.PipelinedFlush {
			s.ep.Send(parent, proto.AggOrderReqBatch{From: s.cfg.ID, Items: []proto.AggOrderItem{it}})
			continue
		}
		items = append(items, it)
	}
	if len(items) > 0 {
		s.ep.Send(parent, proto.AggOrderReqBatch{From: s.cfg.ID, Items: items})
	}
}

// parentLeader resolves the current leader of the parent region. The
// topology is internally synchronized; no sequencer lock is needed.
func (s *Sequencer) parentLeader() (types.NodeID, bool) {
	parent, has, err := s.topo.Parent(s.cfg.Region)
	if err != nil || !has {
		return 0, false
	}
	leader, err := s.topo.Leader(parent)
	if err != nil {
		return 0, false
	}
	return leader, true
}
