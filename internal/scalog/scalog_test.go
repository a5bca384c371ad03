package scalog

import (
	"sync"
	"testing"
	"time"

	"flexlog/internal/paxos"
	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// receiver collects the assignments broadcast to a fake replica set.
type receiver struct {
	mu    sync.Mutex
	resps []proto.OrderRespItem
	ch    chan struct{}
}

func newReceiver(t *testing.T, net *transport.Network, id types.NodeID) *receiver {
	t.Helper()
	r := &receiver{ch: make(chan struct{}, 4096)}
	if _, err := net.Register(id, func(from types.NodeID, msg transport.Message) {
		if m, ok := msg.(proto.OrderRespBatch); ok {
			r.mu.Lock()
			r.resps = append(r.resps, m.Items...)
			r.mu.Unlock()
			for range m.Items {
				r.ch <- struct{}{}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *receiver) wait(t *testing.T, n int) []proto.OrderRespItem {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-r.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %d responses (got %d)", n, i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]proto.OrderRespItem(nil), r.resps...)
}

// orderReq is a lone request for n SNs whose answer goes to receiver 50.
func orderReq(tokenCtr, n uint32) proto.OrderReqBatch {
	return proto.OrderReqBatch{Color: 0, Replicas: []types.NodeID{50},
		Items: []proto.OrderReq{{Token: types.MakeToken(9, tokenCtr), NRecords: n}}}
}

func newOrderer(t *testing.T, batch time.Duration) (*transport.Network, *Orderer, *receiver) {
	t.Helper()
	net := transport.NewNetwork(transport.ZeroLink())
	ids, _, err := paxos.AcceptorSet(net, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		ID: 100, Acceptors: ids,
		BatchInterval: batch,
		UniquePrimary: true,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Stop)
	rx := newReceiver(t, net, 50)
	// Sender endpoint standing in for a replica.
	return net, o, rx
}

func TestOrdererAssignsDistinctSNs(t *testing.T) {
	net, o, rx := newOrderer(t, 0)
	sender, err := net.Register(60, func(types.NodeID, transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := uint32(1); i <= n; i++ {
		sender.Send(100, orderReq(i, 1))
	}
	resps := rx.wait(t, n)
	seen := make(map[types.SN]bool)
	for _, r := range resps {
		if seen[r.LastSN] {
			t.Fatalf("duplicate SN %v", r.LastSN)
		}
		seen[r.LastSN] = true
	}
	if got := o.Stats().Assigned; got != n {
		t.Fatalf("assigned = %d", got)
	}
}

func TestOrdererBatchesRequests(t *testing.T) {
	net, o, rx := newOrderer(t, 3*time.Millisecond)
	sender, _ := net.Register(60, func(types.NodeID, transport.Message) {})
	const n = 30
	for i := uint32(1); i <= n; i++ {
		sender.Send(100, orderReq(i, 1))
	}
	rx.wait(t, n)
	st := o.Stats()
	if st.Batches >= n {
		t.Fatalf("no batching: %d batches for %d requests", st.Batches, n)
	}
	// Each batch costs exactly one Paxos decision.
	if d := o.PaxosStats().Decided; d != st.Batches {
		t.Fatalf("decisions %d != batches %d", d, st.Batches)
	}
}

func TestOrdererTokenDedup(t *testing.T) {
	net, o, rx := newOrderer(t, 0)
	sender, _ := net.Register(60, func(types.NodeID, transport.Message) {})
	req := orderReq(1, 1)
	sender.Send(100, req)
	first := rx.wait(t, 1)
	sender.Send(100, req)   // retry: must re-broadcast the same SN
	second := rx.wait(t, 1) // one more response
	if first[0].LastSN != second[1].LastSN {
		t.Fatalf("dedup broken: %v vs %v", first[0].LastSN, second[1].LastSN)
	}
	if o.Stats().Assigned != 1 {
		t.Fatalf("assigned = %d", o.Stats().Assigned)
	}
}

func TestOrdererRangeRequests(t *testing.T) {
	net, _, rx := newOrderer(t, 0)
	sender, _ := net.Register(60, func(types.NodeID, transport.Message) {})
	sender.Send(100, orderReq(1, 5))
	sender.Send(100, orderReq(2, 3))
	resps := rx.wait(t, 2)
	// Ranges must be disjoint and contiguous in total.
	total := uint32(0)
	maxEnd := types.SN(0)
	for _, r := range resps {
		total += r.NRecords
		if r.LastSN > maxEnd {
			maxEnd = r.LastSN
		}
	}
	if total != 8 || maxEnd != types.SN(8) {
		t.Fatalf("total=%d maxEnd=%v", total, maxEnd)
	}
}

// TestDuelingOrderers reproduces the §3.3 multi-proposer configuration:
// two orderers share the acceptors without a unique primary; preemptions
// occur and progress (per decision) costs far more work.
func TestDuelingOrderers(t *testing.T) {
	net := transport.NewNetwork(transport.ZeroLink())
	ids, _, err := paxos.AcceptorSet(net, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id types.NodeID) *Orderer {
		o, err := New(Config{
			ID: id, Acceptors: ids,
			UniquePrimary: false,
			PhaseTimeout:  5 * time.Millisecond,
			MaxAttempts:   100,
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(o.Stop)
		return o
	}
	o1, o2 := mk(100), mk(200)
	rx := newReceiver(t, net, 50)
	sender, _ := net.Register(60, func(types.NodeID, transport.Message) {})

	const n = 20
	for i := uint32(1); i <= n; i++ {
		target := types.NodeID(100)
		if i%2 == 0 {
			target = 200
		}
		sender.Send(target, orderReq(i, 1))
	}
	rx.wait(t, n)
	pre := o1.PaxosStats().Preemptions + o2.PaxosStats().Preemptions
	t.Logf("dueling orderers: %d preemptions for %d requests", pre, n)
	if pre == 0 {
		t.Log("no preemptions observed this run (timing-dependent); acceptable")
	}
}
