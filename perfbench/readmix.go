package main

import (
	"math/rand"
	"sync"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

// read-mix: 64 Ki records of 1 KiB are preloaded, 64 MiB against each
// replica's 16 MiB of PM and 4 MiB of cache, so most reads miss the cache
// and go to the cold tier. Two closed-loop callers then issue 90% reads,
// uniform over the preloaded records, and 10% unbatched appends.
const (
	mixRecord    = 1 << 10
	mixPreload   = 64 << 10
	mixLoadBatch = 64 // records per preload append
	mixCallers   = 2
	mixReadPct   = 90
	mixVerify    = 2048            // appends of the mix read back after the window
	mixIndexBase = uint64(1) << 40 // record indices of the mix's appends start here
)

// mixSystem is the read-mix cluster with the SN of every preloaded record.
type mixSystem struct {
	*inprocSystem
	callers []*core.Client
	sns     []types.SN // sns[i] holds preloaded record i
}

func (s *mixSystem) stop() {
	for _, c := range s.callers {
		c.Close()
	}
	s.inprocSystem.stop()
}

func buildMix(rc runConfig) (*mixSystem, error) {
	in, err := buildInproc(rc.traced)
	if err != nil {
		return nil, err
	}
	s := &mixSystem{inprocSystem: in, sns: make([]types.SN, 0, mixPreload)}
	for i := 0; i < mixCallers; i++ {
		c, err := in.cl.NewClient(core.WithoutBatching())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.callers = append(s.callers, c)
	}
	for len(s.sns) < mixPreload {
		// A fresh slice per call: the in-process network hands the records
		// to the replicas by reference.
		batch := make([][]byte, mixLoadBatch)
		first := uint64(len(s.sns))
		for j := range batch {
			batch[j] = payload(rc.seed, first+uint64(j), mixRecord)
		}
		last, err := in.cli.Append(batch, types.MasterColor)
		if err != nil {
			s.stop()
			return nil, err
		}
		for j := range batch {
			s.sns = append(s.sns, last-types.SN(len(batch)-1-j))
		}
	}
	return s, nil
}

func runReadMix(rc runConfig) (*outcome, error) {
	o := newOutcome(rc.traced)
	sys, took, err := timeSetup(rc.setups, func() (*mixSystem, error) { return buildMix(rc) })
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	o.setups = took

	src := sys.sources()
	src.client = nil // the callers run unbatched; the loader's batches are set-up
	src.tracing(false)
	var before counters
	if rc.traced {
		before = src.snapshot()
		src.tracing(true)
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		counts windowCounts
		mixed  []ack // the mix's acknowledged appends
	)
	m := startMeter()
	deadline := m.t0.Add(rc.dur)
	for c := 0; c < mixCallers; c++ {
		wg.Add(1)
		go func(c int, cli *core.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(rc.seed*mixCallers + int64(c)))
			var mine windowCounts
			var acks []ack
			next := mixIndexBase + uint64(c)<<32
			for time.Now().Before(deadline) {
				if rng.Intn(100) < mixReadPct {
					i := rng.Intn(len(sys.sns))
					if d, ok := readCheck(o, cli, types.MasterColor, sys.sns[i], rc.seed, uint64(i), mixRecord); ok {
						o.readLat.add(time.Since(m.t0), d)
						mine.reads++
					}
					continue
				}
				rec := payload(rc.seed, next, mixRecord)
				t0 := time.Now()
				sn, err := cli.Append([][]byte{rec}, types.MasterColor)
				t1 := time.Now()
				o.attempted.Add(1)
				if err != nil {
					o.errors.Add(1)
					next++
					continue
				}
				o.appendLat.add(t1.Sub(m.t0), t1.Sub(t0))
				o.call("Client.Append", t1.Sub(t0))
				a := ack{color: types.MasterColor, sn: sn, index: next, issued: t0, done: t1}
				o.check.ack(a)
				acks = append(acks, a)
				mine.appends++
				next++
			}
			mu.Lock()
			counts.reads += mine.reads
			counts.appends += mine.appends
			mixed = append(mixed, acks...)
			mu.Unlock()
		}(c, sys.callers[c])
	}
	wg.Wait()
	o.ops.Store(int64(counts.reads + counts.appends))
	m.end(o)
	if rc.traced {
		src.tracing(false)
		src.derive(before, src.snapshot(), counts, o)
	}

	// Read back a seeded sample of the mix's appends; these reads check
	// the acknowledged records and are not part of the read metrics.
	rng := rand.New(rand.NewSource(rc.seed))
	for k := 0; k < mixVerify && len(mixed) > 0; k++ {
		a := mixed[rng.Intn(len(mixed))]
		readCheck(o, sys.cli, a.color, a.sn, rc.seed, a.index, mixRecord)
	}
	o.check.verifyOrder()
	return o, nil
}
