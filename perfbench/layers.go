package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/metrics"
	"flexlog/internal/obs"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/transport"
)

// layerSources are the handles a traced pass reads its per-layer numbers
// from. Everything is read from outside the layers, through what they
// already publish.
type layerSources struct {
	replicas []*replica.Replica
	seqs     []*seq.Sequencer
	client   *core.Client
	lanes    func() []obs.LaneSnapshot
	net      *transport.Network       // the in-process fabric; nil over TCP
	tcp      []*transport.TCPEndpoint // nil in process
	reg      *obs.Registry
	rf       int // replicas per shard: how many PM writes one record costs

	// Set on append-tcp: the wrapped transport.Handler and Endpoint time
	// every delivery and every send, and count the order-request messages
	// delivered to sequencers.
	handlerTime, sendTime *metrics.Histogram
	orderMsgs             *atomic.Uint64
}

// tracing switches the replicas' stage tracers, so the stage histograms
// cover the measured window and not set-up.
func (s *layerSources) tracing(on bool) {
	for _, r := range s.replicas {
		for _, t := range r.Tracers() {
			t.SetEnabled(on)
		}
	}
}

// counters is one snapshot of the layers' cumulative counters.
type counters map[string]float64

func (s *layerSources) snapshot() counters {
	c := counters{}
	for _, r := range s.replicas {
		st := r.Stats()
		c["rep.reads"] += float64(st.Reads)
		c["rep.held"] += float64(st.HeldReads)
		c["rep.oreq_retries"] += float64(st.OReqRetries)
		ss := r.Store().Stats()
		c["st.pm_tx"] += float64(ss.PM.TxCommits)
		c["st.gc_ops"] += float64(ss.GC.Ops)
		c["st.gc_windows"] += float64(ss.GC.Windows)
		c["st.cache_hits"] += float64(ss.CacheHits)
		c["st.cache_misses"] += float64(ss.CacheMisses)
		c["st.cold_reads"] += float64(ss.ColdMissReads)
	}
	for _, q := range s.seqs {
		st := q.Stats()
		c["seq.direct"] += float64(st.DirectReqs)
		c["seq.flush_rounds"] += float64(st.FlushRounds)
		c["seq.urgent"] += float64(st.UrgentFlushes)
		c["seq.pipelined"] += float64(st.PipelinedBatches)
		c["seq.batches_sent"] += float64(st.BatchesSent)
		c["seq.dup"] += float64(st.DupTokens)
		c["seq.resends"] += float64(st.Resends)
		c["seq.elections"] += float64(st.Elections)
	}
	if s.client != nil {
		m := s.client.Metrics()
		c["cli.batches"] = float64(m.Batches.Count())
		c["cli.batched"] = float64(m.BatchedAppends.Count())
	}
	for _, l := range s.lanes() {
		c[l.Lane+"lane.busy_ns"] += float64(l.Busy)
		if d := float64(l.MaxDepth); d > c["lane.max_depth"] {
			c["lane.max_depth"] = d
		}
	}
	if s.net != nil {
		delivered, _ := s.net.Stats()
		c["msgs"] = float64(delivered)
	}
	if s.orderMsgs != nil {
		c["seq.order_msgs"] = float64(s.orderMsgs.Load())
	}
	for _, ep := range s.tcp {
		st := ep.Stats()
		c["msgs"] += float64(st.FramesIn)
		c["tcp.sends"] += float64(st.SendsOut)
		c["tcp.bytes"] += float64(st.BytesOut)
		c["tcp.writev"] += float64(st.WritevCalls)
		c["tcp.gob"] += float64(st.GobFrames)
	}
	return c
}

// windowCounts says how much work the measured window did.
type windowCounts struct {
	appends, reads int
}

func (w windowCounts) ops() float64 { return float64(w.appends + w.reads) }

// derive turns two snapshots taken around the measured window into the
// per-layer metrics of BENCHMARK.json, and fills the stage decomposition.
func (s *layerSources) derive(before, after counters, w windowCounts, o *outcome) {
	d := func(k string) float64 { return after[k] - before[k] }
	ops := w.ops()
	set := func(name string, v float64, unit string) { o.layers[name] = metric{v, unit} }

	set("core.batch_records_mean", ratio(d("cli.batched"), d("cli.batches")), "count")
	qd := 0.0
	if s.client != nil {
		qd = us(s.client.Metrics().QueueDelay.Percentile(50))
	}
	set("core.batch_queue_delay_p50_us", qd, "us")

	set("transport.msgs_per_op", ratio(d("msgs"), ops), "count")
	set("transport.write_lane_busy_us_per_op", ratio(d("writelane.busy_ns")/1e3, ops), "us")
	set("transport.read_lane_busy_us_per_op", ratio(d("readlane.busy_ns")/1e3, ops), "us")
	set("transport.lane_max_depth", after["lane.max_depth"], "count")

	set("tcp.frames_per_op", ratio(d("tcp.sends"), ops), "count")
	set("tcp.bytes_per_op", ratio(d("tcp.bytes"), ops), "B")
	set("tcp.frames_per_writev", ratio(d("tcp.sends"), d("tcp.writev")), "count")
	set("tcp.gob_frames", d("tcp.gob"), "count")
	set("tcp.send_us_p50", histP50(s.sendTime), "us")
	set("tcp.handler_us_p50", histP50(s.handlerTime), "us")

	stages := stageStats(s.reg)
	for _, st := range []string{"append.lane_wait", "append.persist", "append.order_wait", "append.commit", "read.lane_wait", "read.serve"} {
		row := stages[st]
		set("replica."+st+"_us.mean", us(row.mean), "us")
		set("replica."+st+"_us.p50", us(row.p50), "us")
	}
	set("replica.held_reads_per_kread", 1000*ratio(d("rep.held"), d("rep.reads")), "count")
	set("replica.oreq_retries", d("rep.oreq_retries"), "count")

	set("storage.pm_tx_per_record", ratio(d("st.pm_tx"), float64(w.appends*s.rf)), "count")
	set("storage.gc_ops_per_window", ratio(d("st.gc_ops"), d("st.gc_windows")), "count")
	set("storage.pm_tx_p50_us", us(nodeMedian(s.reg, "flexlog_pm_tx_seconds")), "us")
	set("storage.cache_hit_ratio", ratio(d("st.cache_hits"), d("st.cache_hits")+d("st.cache_misses")), "ratio")
	set("storage.cold_reads_per_read", ratio(d("st.cold_reads"), float64(w.reads)), "count")

	set("seq.records_per_round", ratio(d("seq.direct"), d("seq.flush_rounds")), "count")
	set("seq.reqs_per_batch", ratio(d("seq.direct"), d("seq.order_msgs")), "count")
	set("seq.urgent_flush_ratio", ratio(d("seq.urgent"), d("seq.flush_rounds")), "ratio")
	set("seq.pipelined_ratio", ratio(d("seq.pipelined"), d("seq.batches_sent")), "ratio")
	set("seq.dup_tokens", d("seq.dup"), "count")
	set("seq.resends", d("seq.resends"), "count")
	set("seq.elections", d("seq.elections"), "count")

	set("proc.allocs_per_op", ratio(float64(o.mallocs), ops), "count")
	set("proc.alloc_bytes_per_op", ratio(float64(o.allocB), ops), "B")
	set("proc.gc_cycles_per_kop", 1000*ratio(float64(o.gcs), ops), "count")

	// Reconciliation: how much of the client's mean append latency the
	// replica's append stages account for.
	var sum time.Duration
	for _, st := range []string{"lane_wait", "persist", "order_wait", "commit"} {
		row := stages["append."+st]
		row.name = "append." + st
		o.stages = append(o.stages, row)
		sum += row.mean
	}
	set("append.unexplained_pct", 100*(1-ratio(float64(sum), float64(o.appendLat.mean()))), "%")

	lag, _, _ := o.genLag.percentile(99)
	set("bench.gen_lag_p99_us", us(lag), "us")
}

func histP50(h *metrics.Histogram) float64 {
	if h == nil {
		return 0
	}
	return us(h.Percentile(50))
}

// stageRow is one traced stage of one operation, over every replica.
type stageRow struct {
	name      string
	mean, p50 time.Duration
	n         uint64
}

// stageStats reads the replicas' stage histograms from the registry's
// exposition: mean from the summed _sum and _count of every node, p50 as
// the median of the nodes' p50s. Keyed by "op.stage".
func stageStats(reg *obs.Registry) map[string]stageRow {
	out := make(map[string]stageRow)
	if reg == nil {
		return out
	}
	sums := map[string]float64{}
	counts := map[string]float64{}
	p50s := map[string][]float64{}
	for _, s := range parseExposition(reg.Snapshot()) {
		base, suffix := s.family("flexlog_trace_stage_seconds")
		if base == "" {
			continue
		}
		key := s.labels["op"] + "." + s.labels["stage"]
		switch {
		case suffix == "_sum":
			sums[key] += s.value
		case suffix == "_count":
			counts[key] += s.value
		case s.labels["quantile"] == "0.5":
			p50s[key] = append(p50s[key], s.value)
		}
	}
	for key, n := range counts {
		out[key] = stageRow{
			name: key,
			mean: time.Duration(ratio(sums[key], n) * 1e9),
			p50:  time.Duration(median(p50s[key]) * 1e9),
			n:    uint64(n),
		}
	}
	return out
}

// nodeMedian returns the median over instances (nodes) of a histogram
// family's p50.
func nodeMedian(reg *obs.Registry, family string) time.Duration {
	if reg == nil {
		return 0
	}
	var p50s []float64
	for _, s := range parseExposition(reg.Snapshot()) {
		if base, suffix := s.family(family); base != "" && suffix == "" && s.labels["quantile"] == "0.5" {
			p50s = append(p50s, s.value)
		}
	}
	return time.Duration(median(p50s) * 1e9)
}

// promSample is one line of the Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// family reports whether the sample belongs to the named family, and
// which suffix ("", "_sum" or "_count") it carries.
func (s promSample) family(name string) (base, suffix string) {
	switch s.name {
	case name:
		return name, ""
	case name + "_sum":
		return name, "_sum"
	case name + "_count":
		return name, "_count"
	}
	return "", ""
}

// parseExposition parses the registry's text exposition; malformed lines
// are skipped.
func parseExposition(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 && strings.HasSuffix(s.name, "}") {
			body := s.name[i+1 : len(s.name)-1]
			s.name = s.name[:i]
			for body != "" {
				k, rest, ok := strings.Cut(body, "=")
				if !ok {
					break
				}
				q, err := strconv.QuotedPrefix(rest)
				if err != nil {
					break
				}
				uq, _ := strconv.Unquote(q) // QuotedPrefix returned a valid quoted string
				s.labels[k] = uq
				body = strings.TrimPrefix(rest[len(q):], ",")
			}
		}
		out = append(out, s)
	}
	return out
}

// printTrace prints what the traced pass adds to the report: the time of
// each public call the benchmark made, and the replica append stages next
// to the client-measured mean with the part they leave unexplained.
func (o *outcome) printTrace(name string) {
	fmt.Printf("calls into the public API (%s, traced pass)\n", name)
	names := make([]string, 0, len(o.calls))
	for n := range o.calls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := o.calls[n]
		p50, _, _ := s.percentile(50)
		fmt.Printf("  %-28s n=%-8d mean %9.1f us  p50 %9.1f us\n", n, s.count(), us(s.mean()), us(p50))
	}
	mean := o.appendLat.mean()
	fmt.Printf("append stage decomposition (%s): replica stage means vs client mean\n", name)
	var sum time.Duration
	for _, r := range o.stages {
		fmt.Printf("  %-28s %9.1f us  (p50 %.1f us, n=%d)\n", r.name, us(r.mean), us(r.p50), r.n)
		sum += r.mean
	}
	fmt.Printf("  %-28s %9.1f us\n", "sum of stages", us(sum))
	fmt.Printf("  %-28s %9.1f us  (n=%d)\n", "client mean append", us(mean), o.appendLat.count())
	fmt.Printf("  %-28s %9.1f us  (%.1f%%)\n", "unexplained", us(mean-sum), o.layers["append.unexplained_pct"].Value)
}
