package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/obs"
	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/storage"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// append-tcp: the deployed path over real loopback sockets, in one process.
// Nodes are configured as flexlog-server configures them by default; a
// master region has two leaf colors with one three-replica shard each. One
// batching client receives a seeded Poisson stream of appends at a fixed
// rate, cycling through the master color, whose appends are ordered by
// aggregation up the sequencer tree, and the two leaf colors, which their
// own sequencers order. Each append is timed from when it was due.
const (
	tcpRecord   = 256
	tcpRate     = 1000 // appends per second: about one of the two cores busy
	tcpWarmup   = 200  // sequential appends per color before the window
	tcpReadBack = 1024 // newest acknowledged records per color read back
	tcpClientID = types.NodeID(500)
)

var tcpColors = []types.ColorID{types.MasterColor, 1, 2}

// tcpSeqs is each region's sequencer group, leader first.
var tcpSeqs = map[types.ColorID][]types.NodeID{
	types.MasterColor: {900, 901, 902},
	1:                 {910, 911, 912},
	2:                 {920, 921, 922},
}

// tcpShards are the replica groups; shard i is attached to leaf color i.
var tcpShards = map[types.ShardID][]types.NodeID{
	1: {1, 2, 3},
	2: {4, 5, 6},
}

type tcpSystem struct {
	replicas []*replica.Replica
	seqs     []*seq.Sequencer
	eps      []*transport.TCPEndpoint
	cli      *core.Client
	reg      *obs.Registry

	// Traced passes wrap every node's handler and endpoint; timing records
	// only while record is set (the measured window). orderMsgs counts the
	// order-request messages (single or coalesced) the sequencers receive.
	record                atomic.Bool
	handlerTime, sendTime *metrics.Histogram
	orderMsgs             atomic.Uint64
}

func (s *tcpSystem) stop() {
	if s.cli != nil {
		s.cli.Close()
	}
	for _, r := range s.replicas {
		r.Stop()
	}
	for _, q := range s.seqs {
		q.Stop()
	}
	for _, ep := range s.eps {
		ep.Close()
	}
}

func (s *tcpSystem) sources() *layerSources {
	return &layerSources{
		replicas: s.replicas,
		seqs:     s.seqs,
		client:   s.cli,
		lanes: func() []obs.LaneSnapshot {
			var out []obs.LaneSnapshot
			for _, r := range s.replicas {
				out = append(out, r.LaneSnapshots()...)
			}
			return out
		},
		tcp:         s.eps,
		reg:         s.reg,
		rf:          len(tcpShards[1]),
		handlerTime: s.handlerTime,
		sendTime:    s.sendTime,
		orderMsgs:   &s.orderMsgs,
	}
}

// loopbackBook reserves a free loopback port for every node.
func loopbackBook(ids []types.NodeID) (*transport.AddressBook, error) {
	addrs := make(map[types.NodeID]string, len(ids))
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[id] = ln.Addr().String()
	}
	return transport.NewAddressBook(addrs), nil
}

// timedEndpoint times every send of a node, from outside the transport.
type timedEndpoint struct {
	transport.Endpoint
	sys *tcpSystem
}

func (e timedEndpoint) Send(to types.NodeID, msg transport.Message) error {
	t := time.Now()
	err := e.Endpoint.Send(to, msg)
	if e.sys.record.Load() {
		e.sys.sendTime.Record(time.Since(t))
	}
	return err
}

func (e timedEndpoint) Broadcast(tos []types.NodeID, msg transport.Message) error {
	t := time.Now()
	err := e.Endpoint.Broadcast(tos, msg)
	if e.sys.record.Load() {
		e.sys.sendTime.Record(time.Since(t))
	}
	return err
}

// attach returns the endpoint factory handed to a node's NewWithEndpoint:
// a binary-codec TCP listener, wrapped on traced passes.
func (s *tcpSystem) attach(id types.NodeID, book *transport.AddressBook) func(transport.Handler) (transport.Endpoint, error) {
	return func(h transport.Handler) (transport.Endpoint, error) {
		if s.reg != nil {
			inner := h
			h = func(from types.NodeID, msg transport.Message) {
				t := time.Now()
				inner(from, msg)
				if s.record.Load() {
					s.handlerTime.Record(time.Since(t))
					switch msg.(type) {
					case proto.OrderReq, proto.OrderReqBatch:
						s.orderMsgs.Add(1)
					}
				}
			}
		}
		ep, err := transport.ListenTCP(id, book, h, transport.WithTCPCodec(transport.CodecBinary))
		if err != nil {
			return nil, err
		}
		s.eps = append(s.eps, ep)
		if s.reg != nil {
			return timedEndpoint{Endpoint: ep, sys: s}, nil
		}
		return ep, nil
	}
}

func buildTCP(rc runConfig, seed int64) (*tcpSystem, error) {
	proto.RegisterGob() // as flexlog-server does: the fallback path stays available
	topo := topology.New()
	var ids []types.NodeID
	for _, color := range []types.ColorID{types.MasterColor, 1, 2} {
		g := tcpSeqs[color]
		if err := topo.AddRegion(color, types.MasterColor, g[0], g[1:]); err != nil {
			return nil, err
		}
		ids = append(ids, g...)
	}
	for _, shard := range []types.ShardID{1, 2} {
		if err := topo.AddShard(shard, types.ColorID(shard), tcpShards[shard]); err != nil {
			return nil, err
		}
		ids = append(ids, tcpShards[shard]...)
	}
	book, err := loopbackBook(append(ids, tcpClientID))
	if err != nil {
		return nil, err
	}
	s := &tcpSystem{}
	if rc.traced {
		s.reg = obs.NewRegistry()
		s.handlerTime, s.sendTime = metrics.NewHistogram(), metrics.NewHistogram()
	}
	fail := func(err error) (*tcpSystem, error) {
		s.stop()
		return nil, err
	}
	for _, color := range []types.ColorID{types.MasterColor, 1, 2} {
		for i, id := range tcpSeqs[color] {
			cfg := seq.DefaultConfig()
			cfg.ID, cfg.Region, cfg.Topo = id, color, topo
			cfg.BatchInterval = time.Microsecond
			cfg.HeartbeatInterval = 100 * time.Millisecond
			cfg.FailureTimeout = time.Second
			cfg.RetryTimeout = 2 * time.Second
			cfg.StartAsLeader = i == 0
			cfg.OrderWorkers = 4
			q, err := seq.NewWithEndpoint(cfg, s.attach(id, book))
			if err != nil {
				return fail(fmt.Errorf("sequencer %v: %w", id, err))
			}
			q.PublishObs(s.reg)
			s.seqs = append(s.seqs, q)
		}
	}
	for _, shard := range []types.ShardID{1, 2} {
		for _, id := range tcpShards[shard] {
			cfg := replica.DefaultConfig()
			cfg.ID, cfg.Shard, cfg.Topo, cfg.Obs = id, shard, topo, s.reg
			cfg.Store = storage.Config{
				SegmentSize: 4 << 20,
				NumSegments: 16,
				CacheBytes:  16 << 20,
				PMModel:     storage.DefaultConfig().PMModel,
				SSDModel:    storage.DefaultConfig().SSDModel,
				GroupCommit: true,
			}
			cfg.OrderCoalesce = true
			cfg.ReadHoldTimeout = time.Millisecond
			cfg.HeartbeatInterval = 100 * time.Millisecond
			cfg.RetryTimeout = time.Second
			r, err := replica.NewWithEndpoint(cfg, s.attach(id, book))
			if err != nil {
				return fail(fmt.Errorf("replica %v: %w", id, err))
			}
			s.replicas = append(s.replicas, r)
		}
	}
	cli, err := core.NewClientWithEndpoint(core.ClientConfig{
		FID:     uint32(seed) | 1,
		ID:      tcpClientID,
		Topo:    topo,
		Timeout: 10 * time.Second,
		Batch:   core.DefaultBatchConfig(),
	}, s.attach(tcpClientID, book))
	if err != nil {
		return fail(fmt.Errorf("client: %w", err))
	}
	s.cli = cli
	return s, nil
}

func runTCP(rc runConfig) (*outcome, error) {
	o := newOutcome(rc.traced)
	next := uint64(0)
	sys, took, err := timeSetup(rc.setups, func() (*tcpSystem, error) {
		s, err := buildTCP(rc, rc.seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < tcpWarmup; i++ {
			for _, color := range tcpColors {
				if _, err := s.cli.Append([][]byte{payload(rc.seed, next, tcpRecord)}, color); err != nil {
					s.stop()
					return nil, fmt.Errorf("warm-up append: %w", err)
				}
				next++
			}
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	o.setups = took

	src := sys.sources()
	src.tracing(false)
	var before counters
	if rc.traced {
		before = src.snapshot()
		src.tracing(true)
		sys.record.Store(true)
	}
	sched := poissonSchedule(rc.seed, tcpRate, rc.dur, len(tcpColors))
	var wg sync.WaitGroup
	m := startMeter()
	start := m.t0
	runtime.LockOSThread()
	for _, a := range sched {
		due := start.Add(a.due)
		sleepUntil(due)
		issued := time.Now()
		o.genLag.add(issued.Sub(due))
		color, index := tcpColors[a.color], next
		next++
		fut := sys.cli.AsyncAppend([][]byte{payload(rc.seed, index, tcpRecord)}, color)
		o.attempted.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-fut.Done()
			done := time.Now()
			sn, err := fut.Wait(context.Background())
			if err != nil {
				o.errors.Add(1)
				return
			}
			o.appendLat.add(a.due, done.Sub(due))
			o.call("Client.AsyncAppend", done.Sub(issued))
			o.check.ack(ack{color: color, sn: sn, index: index, issued: issued, done: done})
			o.ops.Add(1)
		}()
	}
	runtime.UnlockOSThread()
	wg.Wait()
	m.end(o)
	if rc.traced {
		sys.record.Store(false)
		src.tracing(false)
		src.derive(before, src.snapshot(), windowCounts{appends: int(o.ops.Load())}, o)
	}

	// Read back the newest acknowledged records of each color over TCP;
	// their latency is this workload's read metric. Then a subscribe per
	// color must return every acknowledged record, in SN order.
	var tail []ack
	for _, color := range tcpColors {
		acked := o.check.acked(color)
		if len(acked) > tcpReadBack {
			acked = acked[len(acked)-tcpReadBack:]
		}
		tail = append(tail, acked...)
	}
	readBack(o, sys.cli, tail, rc.seed, tcpRecord)
	for _, color := range tcpColors {
		t := time.Now()
		recs, err := sys.cli.Subscribe(color, types.InvalidSN)
		o.attempted.Add(1)
		if err != nil {
			o.errors.Add(1)
			continue
		}
		o.call("Client.Subscribe", time.Since(t))
		o.check.verifySubscribe(color, rc.seed, recs)
	}
	o.check.verifyOrder()
	return o, nil
}
