package core

import (
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// TestAppendWaitsForReplicaPromotedMidAppend checks the completion fence
// of the append protocol: an append sent to a shard's old members, all of
// which ack, is not complete while a replica promoted into the shard
// meanwhile has not acked — the client sends it the request and waits.
// Otherwise the new member would lack an acked record and a read it
// serves would return ⊥. Both the unbatched and the batched path share
// the fence.
func TestAppendWaitsForReplicaPromotedMidAppend(t *testing.T) {
	for _, batch := range []BatchConfig{{}, DefaultBatchConfig()} {
		name := "unbatched"
		if batch.enabled() {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) { testAppendFence(t, batch) })
	}
}

func testAppendFence(t *testing.T, batch BatchConfig) {
	net := transport.NewNetwork(transport.ZeroLink())
	t.Cleanup(net.Shutdown)
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 900, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, 0, []types.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Fake replicas report each append they receive; the test acks.
	type got struct {
		id    types.NodeID
		token types.Token
	}
	reqs := make(chan got, 16)
	eps := make(map[types.NodeID]transport.Endpoint)
	for _, id := range []types.NodeID{1, 2, 3} {
		ep, err := net.Register(id, func(from types.NodeID, msg transport.Message) {
			if m, ok := msg.(proto.AppendReq); ok {
				reqs <- got{id, m.Token}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}
	const client types.NodeID = 500
	c, err := NewClientWithEndpoint(ClientConfig{
		FID: 500, ID: client, Topo: topo, Batch: batch,
		RetryInterval: time.Hour, // no retry may run: only the completion fence
		Timeout:       time.Hour,
	}, func(h transport.Handler) (transport.Endpoint, error) { return net.Register(client, h) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	type result struct {
		sn  types.SN
		err error
	}
	res := make(chan result, 1)
	go func() {
		sn, err := c.Append([][]byte{[]byte("x")}, 0)
		res <- result{sn, err}
	}()
	next := func() got {
		t.Helper()
		select {
		case g := <-reqs:
			return g
		case <-time.After(5 * time.Second):
			t.Fatal("no append request reached a replica")
		}
		return got{}
	}
	first, second := next(), next()
	if first.id == 3 || second.id == 3 || first.token != second.token {
		t.Fatalf("append went to %v and %v, want the old members 1 and 2", first.id, second.id)
	}

	// Replica 3 is promoted into the shard, then the old members ack.
	if err := topo.AddReplicaToShard(1, 3); err != nil {
		t.Fatal(err)
	}
	sn := types.MakeSN(1, 1)
	for _, id := range []types.NodeID{1, 2} {
		eps[id].Send(client, proto.AppendAck{Token: first.token, SN: sn})
	}
	if g := next(); g.id != 3 || g.token != first.token {
		t.Fatalf("request went to replica %v, want the promoted replica 3", g.id)
	}
	select {
	case r := <-res:
		t.Fatalf("append completed (%v, %v) before the promoted replica acked", r.sn, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	eps[3].Send(client, proto.AppendAck{Token: first.token, SN: sn})
	select {
	case r := <-res:
		if r.err != nil || r.sn != sn {
			t.Fatalf("append = %v, %v; want %v", r.sn, r.err, sn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append did not complete after every member acked")
	}
}
