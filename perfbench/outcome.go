package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is everything one pass of a workload measured.
type outcome struct {
	setups    []float64    // seconds per timed set-up
	appendLat series       // per append, from issue (or due time) to ack
	readLat   series       // per read
	genLag    samples      // open loop: how late each request was issued
	ops       atomic.Int64 // operations completed in the measured window
	attempted atomic.Int64 // every operation issued, checks included
	errors    atomic.Int64
	check     checker

	window   time.Duration
	cpu      time.Duration // process user+sys over the window
	heapPeak uint64        // bytes
	mallocs  uint64
	allocB   uint64
	gcs      uint64

	traced  bool
	callsMu sync.Mutex
	calls   map[string]*samples // traced: time per public call, by function
	layers  map[string]metric   // traced: per-layer metrics
	stages  []stageRow          // traced: append stage decomposition
}

func newOutcome(traced bool) *outcome {
	return &outcome{traced: traced, calls: make(map[string]*samples), layers: make(map[string]metric)}
}

// call records the time one public call took, on traced passes.
func (o *outcome) call(name string, d time.Duration) {
	if !o.traced {
		return
	}
	o.callsMu.Lock()
	s := o.calls[name]
	if s == nil {
		s = &samples{}
		o.calls[name] = s
	}
	o.callsMu.Unlock()
	s.add(d)
}

// failed counts failed, refused and wrong-result operations: calls that
// returned an error plus every fault the checker found.
func (o *outcome) failed() int64 { return o.errors.Load() + int64(o.check.faultCount()) }

func (o *outcome) cpuPerOp() float64 { return ratio(us(o.cpu), float64(o.ops.Load())) }

// endToEnd derives the metrics BENCHMARK.json lists under end_to_end.
func (o *outcome) endToEnd() map[string]metric {
	pct := func(s *series, q float64) float64 {
		v, _ := s.percentile(q)
		return us(v)
	}
	return map[string]metric{
		"append_p50_us": {pct(&o.appendLat, 50), "us"},
		"read_p50_us":   {pct(&o.readLat, 50), "us"},
		"ops_per_s":     {ratio(float64(o.ops.Load()), o.window.Seconds()), "1/s"},
		"cpu_us_per_op": {o.cpuPerOp(), "us"},
		"heap_peak_mb":  {float64(o.heapPeak) / (1 << 20), "MiB"},
		"setup_s":       {median(o.setups), "s"},
	}
}

// timingLines prints each timing percentile with its sample count.
func (o *outcome) timingLines() []string {
	out := []string{
		o.appendLat.pctLine("append_p50_us", 50),
		o.appendLat.pctLine("append_p90_us", 90),
		o.appendLat.pctLine("append_p99_us", 99),
		o.readLat.pctLine("read_p50_us", 50),
		o.readLat.pctLine("read_p99_us", 99),
	}
	if o.genLag.count() > 0 {
		out = append(out, o.genLag.pctLine("generator_lag_p50_us", 50), o.genLag.pctLine("generator_lag_p99_us", 99))
	}
	return out
}

func (o *outcome) sampleCounts() map[string]int {
	return map[string]int{"append": o.appendLat.count(), "read": o.readLat.count(), "setup": len(o.setups)}
}

// meter measures the process over a measured window: wall time, CPU from
// getrusage, allocation and GC counts, and the peak heap, sampled.
type meter struct {
	t0   time.Time
	ru0  syscall.Rusage
	ms0  runtime.MemStats
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startMeter() *meter {
	runtime.GC() // start from the live heap, not from set-up's garbage
	m := &meter{stop: make(chan struct{})}
	runtime.ReadMemStats(&m.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0) // cannot fail for RUSAGE_SELF
	m.wg.Add(1)
	go m.sampleHeap()
	m.t0 = time.Now()
	return m
}

func (m *meter) sampleHeap() {
	defer m.wg.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > m.peak.Load() {
			m.peak.Store(v)
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// end closes the window and stores what it measured in o.
func (m *meter) end(o *outcome) {
	o.window = time.Since(m.t0)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	close(m.stop)
	m.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.cpu = time.Duration(ru.Utime.Nano()+ru.Stime.Nano()-m.ru0.Utime.Nano()-m.ru0.Stime.Nano()) * time.Nanosecond
	o.heapPeak = m.peak.Load()
	o.mallocs = ms.Mallocs - m.ms0.Mallocs
	o.allocB = ms.TotalAlloc - m.ms0.TotalAlloc
	o.gcs = uint64(ms.NumGC - m.ms0.NumGC)
}

// timeSetup runs build n times, keeping only the last system, and returns
// it with the seconds each build took.
func timeSetup[S interface{ stop() }](n int, build func() (S, error)) (S, []float64, error) {
	var sys S
	var took []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			sys.stop()
		}
		t := time.Now()
		s, err := build()
		if err != nil {
			return sys, nil, err
		}
		took = append(took, time.Since(t).Seconds())
		sys = s
	}
	return sys, took, nil
}

// hostRecord describes the machine and the source tree a result came from.
func hostRecord() map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"cores":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_rev":       gitRev("."),
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from .git without running git; a
// tree that is not a git checkout reports "none" (source_sha256 still
// identifies it).
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file of the tree, in path
// order, so results from the same source compare equal even outside git.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
