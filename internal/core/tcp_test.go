package core

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"flexlog/internal/deploy"
	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// tcpCluster is a FlexLog deployed over real TCP sockets on loopback: a
// sequencer (900) and one shard of three replicas (1, 2, 3) on color 0.
type tcpCluster struct {
	topo     *topology.Topology
	replicas map[types.NodeID]*replica.Replica
	attach   func(id types.NodeID) func(h transport.Handler) (transport.Endpoint, error)
}

// startTCPCluster reserves loopback ports for the cluster and for the
// listed extra node ids (clients), then starts the sequencer and the
// replicas. Everything stops when the test ends.
func startTCPCluster(t *testing.T, extra ...types.NodeID) *tcpCluster {
	t.Helper()
	deploy.RegisterWire()

	// Reserve loopback ports.
	ids := append([]types.NodeID{1, 2, 3, 900}, extra...)
	addrs := make(map[types.NodeID]string, len(ids))
	var lns []net.Listener
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs[id] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	m := &deploy.Manifest{
		Nodes:   addrs,
		Regions: []deploy.RegionSpec{{Color: 0, Leader: 900}},
		Shards:  []deploy.ShardSpec{{ID: 1, Leaf: 0, Replicas: []types.NodeID{1, 2, 3}}},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	topo, err := m.Topology()
	if err != nil {
		t.Fatal(err)
	}
	book := m.AddressBook()
	tc := &tcpCluster{
		topo:     topo,
		replicas: make(map[types.NodeID]*replica.Replica),
		attach: func(id types.NodeID) func(h transport.Handler) (transport.Endpoint, error) {
			return func(h transport.Handler) (transport.Endpoint, error) {
				return transport.ListenTCP(id, book, h)
			}
		},
	}

	// Sequencer.
	scfg := seq.DefaultConfig()
	scfg.ID = 900
	scfg.Region = 0
	scfg.Topo = topo
	scfg.BatchInterval = 0
	scfg.HeartbeatInterval = 50 * time.Millisecond
	scfg.FailureTimeout = time.Second
	scfg.StartAsLeader = true
	s, err := seq.NewWithEndpoint(scfg, tc.attach(900))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)

	// Replicas.
	for _, id := range []types.NodeID{1, 2, 3} {
		rcfg := replica.DefaultConfig()
		rcfg.ID = id
		rcfg.Shard = 1
		rcfg.Topo = topo
		rcfg.Store = storage.TestConfig()
		rcfg.HeartbeatInterval = 50 * time.Millisecond
		rcfg.RetryTimeout = 500 * time.Millisecond
		r, err := replica.NewWithEndpoint(rcfg, tc.attach(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		tc.replicas[id] = r
	}
	return tc
}

// TestTCPClusterEndToEnd deploys a complete FlexLog — a sequencer group
// and one shard of three replicas — over real TCP sockets on loopback and
// exercises the public API through a TCP client, validating that the
// protocols (and their gob encodings) survive a real network.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP deployment test skipped in -short mode")
	}
	tc := startTCPCluster(t, 500)
	topo, attach := tc.topo, tc.attach

	// Client over TCP.
	client, err := NewClientWithEndpoint(ClientConfig{
		FID: 500, ID: 500, Topo: topo,
		Timeout:       15 * time.Second,
		RetryInterval: 300 * time.Millisecond,
	}, attach(500))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Append / read / subscribe / trim over the wire.
	var sns []types.SN
	for i := 0; i < 5; i++ {
		sn, err := client.Append([][]byte{fmt.Appendf(nil, "tcp-%d", i)}, 0)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		sns = append(sns, sn)
	}
	got, err := client.Read(sns[3], 0)
	if err != nil || string(got) != "tcp-3" {
		t.Fatalf("read = %q, %v", got, err)
	}
	recs, err := client.Subscribe(0, types.InvalidSN)
	if err != nil || len(recs) != 5 {
		t.Fatalf("subscribe = %d records, %v", len(recs), err)
	}
	head, tail, err := client.Trim(sns[1], 0)
	if err != nil {
		t.Fatalf("trim: %v", err)
	}
	if head != sns[2] || tail != sns[4] {
		t.Fatalf("bounds after trim = %v, %v", head, tail)
	}
	if _, err := client.Read(sns[0], 0); err == nil {
		t.Fatal("trimmed record still readable")
	}

	// The handler-wrapped lanes report the same /debug/lanes rows as the
	// in-process ones.
	ids := []types.NodeID{1, 2, 3}
	var snaps []obs.LaneSnapshot
	for _, id := range ids {
		snaps = append(snaps, tc.replicas[id].LaneSnapshots()...)
	}
	checkLaneSnapshots(t, snaps, ids, 5, 1)
}

// TestTCPRecoveryCatchesUpInBudgetedRounds crashes one replica of a TCP
// deployment while its two peers commit several times the catch-up byte
// budget, then recovers it. The sync-phase must pull the missing log in
// several budgeted rounds (a single reply would carry all of it) and
// leave the recovered replica holding every record byte for byte,
// including multi-record append batches.
func TestTCPRecoveryCatchesUpInBudgetedRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP deployment test skipped in -short mode")
	}
	const (
		client      types.NodeID = 500
		recordBytes              = 24 << 10
		appends                  = 100 // 1-3 records each: ~4.7 MiB, over 4x the 1 MiB budget
	)
	tc := startTCPCluster(t, client)

	// A raw client endpoint: appends go to chosen replicas only, so records
	// commit on the live peers while the victim is down.
	type ack struct {
		from  types.NodeID
		token types.Token
	}
	acks := make(chan ack, 1024)
	ep, err := tc.attach(client)(func(from types.NodeID, msg transport.Message) {
		if m, ok := msg.(proto.AppendAck); ok {
			acks <- ack{from, m.Token}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	appendTo := func(i int, to ...types.NodeID) {
		t.Helper()
		tok := types.MakeToken(uint32(client), uint32(i+1))
		recs := make([][]byte, 1+i%3)
		for k := range recs {
			recs[k] = bytes.Repeat([]byte{byte(i), byte(k)}, recordBytes/2)
		}
		for _, id := range to {
			ep.Send(id, proto.AppendReq{Color: 0, Token: tok, Records: recs, Client: client})
		}
		want := make(map[types.NodeID]bool)
		for _, id := range to {
			want[id] = true
		}
		deadline := time.After(10 * time.Second)
		for len(want) > 0 {
			select {
			case a := <-acks:
				if a.token == tok {
					delete(want, a.from)
				}
			case <-deadline:
				t.Fatalf("append %d: no ack from %v", i, want)
			}
		}
	}

	for i := 0; i < 4; i++ {
		appendTo(i, 1, 2, 3)
	}
	victim := tc.replicas[3]
	victim.Crash()
	for i := 4; i < 4+appends; i++ {
		appendTo(i, 1, 2)
	}

	rounds := victim.Stats().CatchupRounds
	if err := victim.Recover(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for victim.Mode() != replica.ModeOperational {
		if time.Now().After(deadline) {
			t.Fatalf("victim stuck in %v", victim.Mode())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := victim.Stats().CatchupRounds - rounds; got < 4 {
		t.Fatalf("recovery ingested %d catch-up rounds, want >= 4", got)
	} else {
		t.Logf("recovery ingested %d catch-up rounds", got)
	}

	want, err := tc.replicas[1].Store().ScanFrom(0, types.InvalidSN, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := victim.Store().ScanFrom(0, types.InvalidSN, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 4+appends || len(got) != len(want) {
		t.Fatalf("victim holds %d records, peer %d (want >= %d)", len(got), len(want), 4+appends)
	}
	for i := range want {
		if got[i].SN != want[i].SN || got[i].Token != want[i].Token || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d differs: victim (%v, %v, %d bytes), peer (%v, %v, %d bytes)",
				i, got[i].SN, got[i].Token, len(got[i].Data), want[i].SN, want[i].Token, len(want[i].Data))
		}
	}
}
