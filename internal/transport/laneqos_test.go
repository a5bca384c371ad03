package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flexlog/internal/types"
)

// qosMsg is the tenant-tagged message class of the lane QoS tests.
type qosMsg struct {
	T types.TenantID
	N int
}

// anyKey puts every message on the lane, at key 0.
func anyKey(Message) (uint64, bool) { return 0, true }

func qosTenantOf(m Message) (types.TenantID, bool) {
	qm, ok := m.(qosMsg)
	if !ok {
		return types.DefaultTenant, false
	}
	return qm.T, true
}

// qosLaneHarness gates a single-worker lane so tests can fill queues
// deterministically: the first dispatched message parks its worker on
// gate; everything dispatched after that stays queued until the gate
// opens.
type qosLaneHarness struct {
	gate    chan struct{}
	opened  sync.Once
	started chan struct{}

	mu    sync.Mutex
	got   []qosMsg
	sheds []qosMsg
}

func newQoSLaneHarness() *qosLaneHarness {
	return &qosLaneHarness{
		gate:    make(chan struct{}),
		started: make(chan struct{}, 1024),
	}
}

func (h *qosLaneHarness) handler(_ types.NodeID, m Message) {
	h.started <- struct{}{}
	<-h.gate
	h.mu.Lock()
	h.got = append(h.got, m.(qosMsg))
	h.mu.Unlock()
}

// release opens the gate; idempotent, so a failing test can defer it
// ahead of the lane's close.
func (h *qosLaneHarness) release() { h.opened.Do(func() { close(h.gate) }) }

func (h *qosLaneHarness) shed(_ types.NodeID, m Message, _ types.TenantID) {
	h.mu.Lock()
	h.sheds = append(h.sheds, m.(qosMsg))
	h.mu.Unlock()
}

func (h *qosLaneHarness) qos(weights map[types.TenantID]uint32) LaneQoS {
	return LaneQoS{TenantOf: qosTenantOf, Weights: weights, Shed: h.shed}
}

func (h *qosLaneHarness) served() []qosMsg {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]qosMsg(nil), h.got...)
}

func (h *qosLaneHarness) shedList() []qosMsg {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]qosMsg(nil), h.sheds...)
}

func waitDequeued(t *testing.T, n uint64, stats func() uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for stats() < n {
		if time.Now().After(deadline) {
			t.Fatalf("lane drained %d messages, want %d", stats(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLaneBackpressureRead pins the read lane's full-queue semantics
// under QoS: a full tenant queue sheds (dispatch still reports true and
// the Shed hook fires, so the owner can send a typed rejection) while
// other tenants keep their headroom, and nothing blocks the caller.
func TestLaneBackpressureRead(t *testing.T) {
	h := newQoSLaneHarness()
	l := newLane(LaneConfig{
		Workers: 1,
		Key:     anyKey,
		QoS:     h.qos(nil),
	}, h.handler, 0, 1, 4)

	// Park the worker, then fill tenant 2's queue to its bound.
	if !l.dispatch(9, qosMsg{T: 2, N: 0}, time.Time{}) {
		t.Fatal("dispatch on open lane reported closed")
	}
	<-h.started
	for i := 1; i <= 4; i++ {
		if !l.dispatch(9, qosMsg{T: 2, N: i}, time.Time{}) {
			t.Fatalf("dispatch %d reported closed", i)
		}
	}
	if got := l.stats().Shed; got != 0 {
		t.Fatalf("sheds before the queue is full: %d", got)
	}
	// Queue full: the overflow message is shed, not blocked on.
	if !l.dispatch(9, qosMsg{T: 2, N: 5}, time.Time{}) {
		t.Fatal("shed dispatch must still report true (handled, not closed)")
	}
	// A different tenant still has its own headroom.
	if !l.dispatch(9, qosMsg{T: 1, N: 0}, time.Time{}) {
		t.Fatal("dispatch for the uncongested tenant reported closed")
	}

	close(h.gate)
	waitDequeued(t, 6, func() uint64 { return l.stats().Dequeued })

	st := l.stats()
	if st.Shed != 1 {
		t.Fatalf("lane shed = %d, want 1", st.Shed)
	}
	sheds := h.shedList()
	if len(sheds) != 1 || sheds[0] != (qosMsg{T: 2, N: 5}) {
		t.Fatalf("shed hook saw %v, want the overflow message of tenant 2", sheds)
	}
	var t1, t2 TenantLaneStats
	for _, ts := range st.Tenants {
		switch ts.Tenant {
		case 1:
			t1 = ts
		case 2:
			t2 = ts
		}
	}
	if t1.Enqueued != 1 || t1.Shed != 0 {
		t.Fatalf("tenant 1 stats = %+v, want 1 enqueued / 0 shed", t1)
	}
	if t2.Enqueued != 5 || t2.Shed != 1 {
		t.Fatalf("tenant 2 stats = %+v, want 5 enqueued / 1 shed", t2)
	}

	l.close()
	if l.dispatch(9, qosMsg{T: 1, N: 1}, time.Time{}) {
		t.Fatal("dispatch after close must report false")
	}
}

// TestLaneBackpressureWrite pins the same full-queue semantics on the
// keyed write lane: per-worker tenant queues shed on overflow without
// blocking, and the key's messages that were accepted stay FIFO.
func TestLaneBackpressureWrite(t *testing.T) {
	h := newQoSLaneHarness()
	l := newLane(LaneConfig{
		Workers: 1,
		Key:     func(Message) (uint64, bool) { return 7, true },
		QoS:     h.qos(nil),
	}, h.handler, 0, 1, 3)

	if !l.dispatch(9, qosMsg{T: 2, N: 0}, time.Time{}) {
		t.Fatal("dispatch on open lane reported closed")
	}
	<-h.started
	for i := 1; i <= 3; i++ {
		if !l.dispatch(9, qosMsg{T: 2, N: i}, time.Time{}) {
			t.Fatalf("dispatch %d reported closed", i)
		}
	}
	if !l.dispatch(9, qosMsg{T: 2, N: 4}, time.Time{}) {
		t.Fatal("shed dispatch must still report true")
	}

	close(h.gate)
	waitDequeued(t, 4, func() uint64 { return l.stats().Dequeued })

	st := l.stats()
	if st.Shed != 1 {
		t.Fatalf("lane shed = %d, want 1", st.Shed)
	}
	sheds := h.shedList()
	if len(sheds) != 1 || sheds[0] != (qosMsg{T: 2, N: 4}) {
		t.Fatalf("shed hook saw %v, want the overflow message", sheds)
	}
	// The accepted prefix of the key's stream was served in order.
	want := []qosMsg{{T: 2, N: 0}, {T: 2, N: 1}, {T: 2, N: 2}, {T: 2, N: 3}}
	got := h.served()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("write lane order = %v, want %v", got, want)
	}

	l.close()
	if l.dispatch(9, qosMsg{T: 2, N: 9}, time.Time{}) {
		t.Fatal("dispatch after close must report false")
	}
}

// TestLaneTenantFIFOWeightedDispatch pins the DRR service order on a
// parked single-worker lane: with weights 3:1, tenant 1 is served three
// messages per round to tenant 2's one, and each tenant's own stream
// stays strictly FIFO.
func TestLaneTenantFIFOWeightedDispatch(t *testing.T) {
	h := newQoSLaneHarness()
	l := newLane(LaneConfig{
		Workers: 1,
		Key:     func(Message) (uint64, bool) { return 1, true },
		QoS:     h.qos(map[types.TenantID]uint32{1: 3, 2: 1}),
	}, h.handler, 0, 1, 64)
	defer l.close()

	// Park the worker on a throwaway message so the queues below build up
	// with no concurrent draining — the DRR order is then deterministic.
	if !l.dispatch(9, qosMsg{T: 1, N: -1}, time.Time{}) {
		t.Fatal("dispatch reported closed")
	}
	<-h.started
	for i := 0; i < 8; i++ {
		l.dispatch(9, qosMsg{T: 1, N: i}, time.Time{})
	}
	for i := 0; i < 4; i++ {
		l.dispatch(9, qosMsg{T: 2, N: i}, time.Time{})
	}
	close(h.gate)
	waitDequeued(t, 13, func() uint64 { return l.stats().Dequeued })

	got := h.served()[1:] // drop the parking message
	want := []qosMsg{
		{T: 1, N: 0}, {T: 1, N: 1}, {T: 1, N: 2}, {T: 2, N: 0},
		{T: 1, N: 3}, {T: 1, N: 4}, {T: 1, N: 5}, {T: 2, N: 1},
		{T: 1, N: 6}, {T: 1, N: 7}, {T: 2, N: 2}, {T: 2, N: 3},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("DRR service order\n got %v\nwant %v", got, want)
	}
}

// TestLaneTenantFIFOConcurrent hammers the weighted read lane from
// concurrent per-tenant producers and checks the invariant that matters
// under load: every tenant's stream is served in its own send order,
// whatever the cross-tenant interleave. Run under -race this also
// exercises the wfq's producer/consumer synchronization.
func TestLaneTenantFIFOConcurrent(t *testing.T) {
	const perTenant = 200
	tenants := []types.TenantID{1, 2, 3}
	var mu sync.Mutex
	seen := make(map[types.TenantID][]int)
	// One worker: handler invocation order then equals pop order, so
	// within-tenant FIFO is directly observable (more workers could record
	// two pops out of order even though the lane popped them FIFO).
	l := newLane(LaneConfig{
		Workers: 1,
		Key:     anyKey,
		QoS: LaneQoS{
			TenantOf: qosTenantOf,
			Weights:  map[types.TenantID]uint32{1: 4, 2: 2, 3: 1},
		},
	}, func(_ types.NodeID, m Message) {
		qm := m.(qosMsg)
		mu.Lock()
		seen[qm.T] = append(seen[qm.T], qm.N)
		mu.Unlock()
	}, 0, 1, perTenant+1)

	var wg sync.WaitGroup
	for _, tenant := range tenants {
		tenant := tenant
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				if !l.dispatch(9, qosMsg{T: tenant, N: i}, time.Time{}) {
					t.Errorf("tenant %d dispatch %d reported closed", tenant, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitDequeued(t, uint64(len(tenants)*perTenant), func() uint64 { return l.stats().Dequeued })
	l.close()

	if st := l.stats(); st.Shed != 0 {
		t.Fatalf("sheds under nominal load: %d", st.Shed)
	}
	for _, tenant := range tenants {
		mu.Lock()
		order := append([]int(nil), seen[tenant]...)
		mu.Unlock()
		if len(order) != perTenant {
			t.Fatalf("tenant %d: served %d of %d", tenant, len(order), perTenant)
		}
		for i, n := range order {
			if n != i {
				t.Fatalf("tenant %d: message %d served at position %d — FIFO broken", tenant, n, i)
			}
		}
	}
}

// qosKey keys a qosMsg by its tenant field, so the lane tests without QoS
// can address write-lane queues with the same message type.
func qosKey(m Message) (uint64, bool) { return uint64(m.(qosMsg).T), true }

// TestLaneBackpressureUnshedBlocks pins the full-queue semantics without
// QoS: a full queue blocks the dispatcher until a worker makes room, and
// nothing is shed or lost.
func TestLaneBackpressureUnshedBlocks(t *testing.T) {
	h := newQoSLaneHarness()
	l := newLane(LaneConfig{Workers: 1, Key: qosKey}, h.handler, 0, 1, 2)
	defer l.close()
	defer h.release()

	// Park the worker, then fill the queue to its bound.
	for i := 0; i <= 2; i++ {
		if !l.dispatch(9, qosMsg{N: i}, time.Time{}) {
			t.Fatalf("dispatch %d reported closed", i)
		}
		if i == 0 {
			<-h.started
		}
	}
	returned := make(chan bool)
	go func() { returned <- l.dispatch(9, qosMsg{N: 3}, time.Time{}) }()
	select {
	case <-returned:
		t.Fatal("dispatch into a full queue returned instead of blocking")
	case <-time.After(50 * time.Millisecond):
	}

	h.release()
	select {
	case ok := <-returned:
		if !ok {
			t.Fatal("unblocked dispatch reported closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch stayed blocked after the worker drained the queue")
	}
	waitDequeued(t, 4, func() uint64 { return l.stats().Dequeued })
	if st := l.stats(); st.Shed != 0 || st.Enqueued != 4 {
		t.Fatalf("lane stats = %+v, want 4 enqueued, 0 shed", st)
	}
	want := []qosMsg{{N: 0}, {N: 1}, {N: 2}, {N: 3}}
	if got := h.served(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("served %v, want %v", got, want)
	}
}

// TestLaneBackpressureUnshedKeyFIFO floods a write lane whose queues are
// far smaller than the burst: every dispatch past the bound blocks, yet
// each key's messages are all handled, in dispatch order.
func TestLaneBackpressureUnshedKeyFIFO(t *testing.T) {
	const keys, perKey, workers = 5, 300, 3
	var mu sync.Mutex
	seen := make(map[types.TenantID][]int)
	l := newLane(LaneConfig{Workers: workers, Key: qosKey}, func(_ types.NodeID, m Message) {
		qm := m.(qosMsg)
		mu.Lock()
		seen[qm.T] = append(seen[qm.T], qm.N)
		mu.Unlock()
	}, 0, workers, 2)
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			if !l.dispatch(9, qosMsg{T: types.TenantID(k), N: i}, time.Time{}) {
				t.Fatalf("dispatch key %d #%d reported closed", k, i)
			}
		}
	}
	l.close()

	if st := l.stats(); st.Shed != 0 || st.Enqueued != keys*perKey || st.Dequeued != keys*perKey {
		t.Fatalf("lane stats = %+v, want %d enqueued and dequeued, 0 shed", st, keys*perKey)
	}
	for k := 0; k < keys; k++ {
		order := seen[types.TenantID(k)]
		if len(order) != perKey {
			t.Fatalf("key %d: handled %d of %d", k, len(order), perKey)
		}
		for i, n := range order {
			if n != i {
				t.Fatalf("key %d: message %d handled at position %d — FIFO broken", k, n, i)
			}
		}
	}
}

// TestLaneBackpressureUnshedClose closes a lane while a dispatcher waits
// on its full queue: the waiting dispatch reports false (its caller runs
// the message inline), and close returns once the workers drain.
func TestLaneBackpressureUnshedClose(t *testing.T) {
	h := newQoSLaneHarness()
	l := newLane(LaneConfig{Workers: 1, Key: qosKey}, h.handler, 0, 1, 1)
	l.dispatch(9, qosMsg{N: 0}, time.Time{})
	<-h.started
	l.dispatch(9, qosMsg{N: 1}, time.Time{}) // fills the queue
	returned := make(chan bool)
	go func() { returned <- l.dispatch(9, qosMsg{N: 2}, time.Time{}) }()
	select {
	case <-returned:
		t.Fatal("dispatch into a full queue returned instead of blocking")
	case <-time.After(20 * time.Millisecond):
	}

	closed := make(chan struct{})
	go func() {
		l.close()
		close(closed)
	}()
	select {
	case ok := <-returned:
		if ok {
			t.Fatal("dispatch waiting through close reported queued")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close left the waiting dispatcher blocked")
	}
	h.release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not return after the workers drained")
	}
	if got := len(h.served()); got != 2 {
		t.Fatalf("served %d queued messages, want 2", got)
	}
	if l.dispatch(9, qosMsg{N: 3}, time.Time{}) {
		t.Fatal("dispatch after close must report false")
	}
}
