// Command perfbench is FlexLog's end-to-end benchmark. It builds a cluster
// in this process from the public constructors, drives one workload
// against it for a fixed time, checks every acknowledged append and every
// read, and prints the metrics named in BENCHMARK.json.
//
//	perfbench --workload append-serial --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the cluster runs with observability off and the last line
// of output carries the end-to-end metrics. With --trace 1 the workload is
// run twice for half the window each, untraced and then traced, and the
// last line carries the
// per-layer metrics, read from outside the layers: the counters and stage
// histograms they already publish, and timings of the calls the benchmark
// makes into them. Earlier lines print every metric with its sample count,
// the host record and, on a traced run, the stage decomposition.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig is what a workload needs to know about one run.
type runConfig struct {
	seed   int64
	dur    time.Duration
	traced bool
	setups int // set-ups to time; the last one is measured
}

// workload is one traffic mix the benchmark can run.
type workload struct {
	run    func(runConfig) (*outcome, error)
	setups int // how many set-ups a run times (setup_s is their median)
}

// workloads are the mixes named in BENCHMARK.json; see README.md for why
// each exists and which layers it exercises.
var workloads = map[string]workload{
	"append-serial": {run: runSerial, setups: 5},
	"append-tcp":    {run: runTCP, setups: 3},
	"read-mix":      {run: runReadMix, setups: 3},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for payloads, key choice and arrival times")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, observability off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	host := hostRecord()
	fmt.Printf("host %s\n", mustJSON(host))
	rc := runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second}

	if *trace == 0 {
		rc.setups = w.setups
		o, err := w.run(rc)
		if err != nil {
			return err
		}
		e2e := o.endToEnd()
		report(*name, "end-to-end", host, o, e2e)
		return emit(o.attempted.Load(), o.failed(), e2e)
	}

	// Traced: an untraced pass gives the CPU baseline the traced pass is
	// compared against, then the traced pass gives the layer numbers. Each
	// measures half the window, so a traced run takes as long as another.
	rc.setups = 1
	rc.dur /= 2
	plain, err := w.run(rc)
	if err != nil {
		return err
	}
	rc.traced = true
	o, err := w.run(rc)
	if err != nil {
		return err
	}
	base := plain.cpuPerOp()
	o.layers["bench.trace_overhead_pct"] = metric{100 * ratio(o.cpuPerOp()-base, base), "%"}
	o.printTrace(*name)
	report(*name, "per-layer", host, o, o.layers)
	return emit(plain.attempted.Load()+o.attempted.Load(), plain.failed()+o.failed(), o.layers)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// report prints every metric of the run by name with its unit, the
// sample counts behind the timings, the faults found and a detail record
// that carries the host.
func report(name, kind string, host map[string]any, o *outcome, ms map[string]metric) {
	fmt.Printf("workload %s (%s metrics, window %.1fs, %d ops)\n", name, kind, o.window.Seconds(), o.ops.Load())
	for _, line := range o.timingLines() {
		fmt.Println("  " + line)
	}
	fmt.Printf("  %-28s %d of %d ops (ratio %.6f)\n", "error_ratio", o.failed(), o.attempted.Load(), ratio(float64(o.failed()), float64(o.attempted.Load())))
	for _, f := range o.check.firstFaults(10) {
		fmt.Println("  fault: " + f)
	}
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-44s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
	fmt.Printf("detail %s\n", mustJSON(map[string]any{
		"workload": name, "kind": kind, "host": host, "metrics": ms,
		"samples": o.sampleCounts(), "attempted": o.attempted.Load(), "failed": o.failed(),
	}))
}

// emit prints the result line; it must stay the last line of output.
func emit(attempted, failed int64, ms map[string]metric) error {
	if attempted < 1 {
		return errors.New("no operation was attempted")
	}
	fmt.Println(mustJSON(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}))
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers are marshalled
	}
	return string(b)
}
