package main

import (
	"runtime"
	"sync"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/obs"
	"flexlog/internal/types"
)

// append-serial: one closed-loop caller, batching off, on the in-process
// cluster BenchmarkEndToEndAppend uses. Every hop of an append is on the
// blocking path and nothing is amortised: client call, replica persist,
// ordering round, commit wake.
const (
	serialRecord    = 256
	serialWarmup    = 2000
	serialTrimEvery = 4096 // appends between trims
	serialKeepLive  = 2048 // records left behind the tail by a trim
)

// readBackFor is how long the append workloads read back what they wrote
// after the window, and readBackers how many readers do it.
const (
	readBackFor = time.Second
	readBackers = 2
)

// inprocSystem is an in-process cluster with its measured client.
type inprocSystem struct {
	cl  *core.Cluster
	cli *core.Client
	reg *obs.Registry
}

func (s *inprocSystem) stop() {
	s.cli.Close()
	s.cl.Stop()
}

// sources returns the layer handles of a single-shard in-process cluster.
func (s *inprocSystem) sources() *layerSources {
	src := &layerSources{
		client: s.cli,
		lanes:  s.cl.LaneSnapshots,
		net:    s.cl.Network(),
		reg:    s.reg,
		rf:     core.TestClusterConfig().ReplicationFactor,
	}
	for _, shard := range s.cl.Topology().ShardsInRegion(types.MasterColor) {
		src.replicas = append(src.replicas, s.cl.Replicas(shard.ID)...)
	}
	src.seqs = s.cl.SequencersOf(types.MasterColor)
	return src
}

// buildInproc builds a one-shard master-color cluster from
// core.TestClusterConfig, with a registry on traced passes.
func buildInproc(traced bool) (*inprocSystem, error) {
	cfg := core.TestClusterConfig()
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	cl, err := core.SimpleCluster(cfg, 1)
	if err != nil {
		return nil, err
	}
	cli, err := cl.NewClient(core.WithoutBatching())
	if err != nil {
		cl.Stop()
		return nil, err
	}
	return &inprocSystem{cl: cl, cli: cli, reg: reg}, nil
}

func runSerial(rc runConfig) (*outcome, error) {
	o := newOutcome(rc.traced)
	next := uint64(0) // index of the next record written
	sys, took, err := timeSetup(rc.setups, func() (*inprocSystem, error) {
		s, err := buildInproc(rc.traced)
		if err != nil {
			return nil, err
		}
		for i := 0; i < serialWarmup; i++ {
			if _, err := s.cli.Append([][]byte{payload(rc.seed, next, serialRecord)}, types.MasterColor); err != nil {
				s.stop()
				return nil, err
			}
			next++
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
	}
	var sns []types.SN
	m := startMeter()
	deadline := m.t0.Add(rc.dur)
	for time.Now().Before(deadline) {
		rec := payload(rc.seed, next, serialRecord)
		t0 := time.Now()
		sn, err := sys.cli.Append([][]byte{rec}, types.MasterColor)
		t1 := time.Now()
		o.attempted.Add(1)
		if err != nil {
			o.errors.Add(1)
			next++
			continue
		}
		o.appendLat.add(t1.Sub(m.t0), t1.Sub(t0))
		o.call("Client.Append", t1.Sub(t0))
		o.check.ack(ack{color: types.MasterColor, sn: sn, index: next, issued: t0, done: t1})
		sns = append(sns, sn)
		next++
		o.ops.Add(1)
		if len(sns) >= serialTrimEvery && len(sns)%serialTrimEvery == 0 {
			t := time.Now()
			_, _, err := sys.cli.Trim(sns[len(sns)-serialKeepLive-1], types.MasterColor)
			o.attempted.Add(1)
			if err != nil {
				o.errors.Add(1)
			}
			o.call("Client.Trim", time.Since(t))
		}
	}
	m.end(o)
	if rc.traced {
		src.tracing(false)
		src.derive(before, src.snapshot(), windowCounts{appends: int(o.ops.Load())}, o)
	}

	// Read back the live tail: the newest records, never trimmed.
	live := o.check.acked(types.MasterColor)
	if len(live) > serialKeepLive {
		live = live[len(live)-serialKeepLive:]
	}
	readBack(o, sys.cli, live, rc.seed, serialRecord)
	o.check.verifyOrder()
	return o, nil
}

// readBack reads the given acknowledged records for readBackFor from two
// closed-loop readers, checking each byte for byte; their latency is the
// read metric of the append workloads. Two readers keep the process busy,
// so a read does not pay for waking an idle processor.
func readBack(o *outcome, cli *core.Client, acks []ack, seed int64, size int) {
	runtime.GC() // leave the window's garbage out of the reads
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < readBackers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; len(acks) > 0 && time.Since(start) < readBackFor; i += readBackers {
				a := acks[i%len(acks)]
				if d, ok := readCheck(o, cli, a.color, a.sn, seed, a.index, size); ok {
					o.readLat.add(time.Since(start), d)
				}
			}
		}(r)
	}
	wg.Wait()
}

// readCheck reads one record and checks its payload byte for byte. It
// returns the read's latency and whether the read succeeded; a failed or
// wrong read is counted against the outcome.
func readCheck(o *outcome, cli *core.Client, color types.ColorID, sn types.SN, seed int64, index uint64, size int) (time.Duration, bool) {
	t0 := time.Now()
	got, err := cli.Read(sn, color)
	d := time.Since(t0)
	o.attempted.Add(1)
	if err != nil {
		o.errors.Add(1)
		return d, false
	}
	o.call("Client.Read", d)
	if !verifyPayload(got, seed, index, size) {
		o.check.fault("%v: read of SN %d returned the wrong bytes for record %d", color, sn, index)
		return d, false
	}
	return d, true
}
