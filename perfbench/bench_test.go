package main

import (
	"strings"
	"testing"
	"time"

	"flexlog/internal/types"
)

func TestPercentileAndSampleCount(t *testing.T) {
	var s samples
	if _, _, ok := s.percentile(50); ok {
		t.Fatal("percentile of an empty set reported ok")
	}
	for i := 100; i >= 1; i-- { // 1..100 µs, added out of order
		s.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		q     float64
		want  time.Duration
		above int
	}{
		{50, 50 * time.Microsecond, 50},
		{90, 90 * time.Microsecond, 10},
		{99, 99 * time.Microsecond, 1},
		{100, 100 * time.Microsecond, 0},
		{0, 1 * time.Microsecond, 99},
	} {
		v, above, ok := s.percentile(c.q)
		if !ok || v != c.want || above != c.above {
			t.Errorf("p%v = %v with %d above, want %v with %d above", c.q, v, above, c.want, c.above)
		}
	}
	if s.count() != 100 {
		t.Errorf("count = %d, want 100", s.count())
	}
	line := s.pctLine("append_p90_us", 90)
	if !strings.Contains(line, "90.0 us") || !strings.Contains(line, "n=100") || !strings.Contains(line, "10 above") {
		t.Errorf("report line %q lacks the value, sample count or count above", line)
	}
}

func TestSeriesTakesMedianOverSlices(t *testing.T) {
	var s series
	// Five one-second slices; one of them is a burst ten times slower.
	for slice := 0; slice < 5; slice++ {
		d := 100 * time.Microsecond
		if slice == 2 {
			d = time.Millisecond
		}
		for i := 0; i < minSubSamples; i++ {
			s.add(time.Duration(slice)*subWindow+time.Duration(i), d)
		}
	}
	// A slice too small to count.
	s.add(5*subWindow, time.Second)
	v, slices := s.percentile(50)
	if v != 100*time.Microsecond || slices != 5 {
		t.Errorf("p50 = %v over %d slices, want 100µs over 5", v, slices)
	}
	if s.count() != 5*minSubSamples+1 {
		t.Errorf("count = %d, want %d", s.count(), 5*minSubSamples+1)
	}
	if !strings.Contains(s.pctLine("p50", 50), "median of 5 slices") {
		t.Errorf("report line lacks the slice count: %q", s.pctLine("p50", 50))
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPoissonScheduleRepeats(t *testing.T) {
	a := poissonSchedule(7, 2000, 2*time.Second, 3)
	b := poissonSchedule(7, 2000, 2*time.Second, 3)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// About rate*span arrivals, in increasing time, inside the span, with
	// colors cycling.
	if n := len(a); n < 3600 || n > 4400 {
		t.Errorf("%d arrivals in 2s at 2000/s", n)
	}
	for i, x := range a {
		if x.due < 0 || x.due >= 2*time.Second || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v (previous %v)", i, x.due, a[max(i-1, 0)].due)
		}
		if x.color != i%3 {
			t.Fatalf("arrival %d has color %d, want %d", i, x.color, i%3)
		}
	}
	c := poissonSchedule(8, 2000, 2*time.Second, 3)
	if len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Error("a different seed gave the same schedule")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := payload(42, 7, 256)
	if len(p) != 256 || !verifyPayload(p, 42, 7, 256) {
		t.Fatal("payload does not verify against its own seed and index")
	}
	if verifyPayload(p, 42, 8, 256) || verifyPayload(p, 43, 7, 256) {
		t.Error("payload verifies against another index or seed")
	}
	if idx, ok := selfCheck(p, 42); !ok || idx != 7 {
		t.Errorf("selfCheck = %d, %v; want 7, true", idx, ok)
	}
	p[100] ^= 1
	if verifyPayload(p, 42, 7, 256) {
		t.Error("a flipped byte still verifies")
	}
	if _, ok := selfCheck(p, 42); ok {
		t.Error("selfCheck accepts a flipped byte")
	}
}

func TestCheckerFlagsCorruptedRead(t *testing.T) {
	var o outcome
	good := payload(1, 5, 64)
	bad := append([]byte(nil), good...)
	bad[40] ^= 0xff
	recs := []types.Record{
		{SN: 10, Data: payload(1, 4, 64)},
		{SN: 11, Data: bad},
	}
	o.check.ack(ack{color: 1, sn: 10, index: 4})
	o.check.ack(ack{color: 1, sn: 11, index: 5})
	if n := o.check.verifySubscribe(1, 1, recs); n != 2 {
		// The corrupted record is flagged, and so the acknowledged record
		// it should have been is missing.
		t.Errorf("verifySubscribe found %d faults, want 2: %v", n, o.check.firstFaults(5))
	}
	if o.failed() != 2 {
		t.Errorf("failed() = %d, want 2", o.failed())
	}
}

func TestCheckerFlagsDuplicateSN(t *testing.T) {
	var c checker
	t0 := time.Unix(0, 0)
	c.ack(ack{color: 0, sn: 1, index: 0, issued: t0, done: t0.Add(1)})
	c.ack(ack{color: 0, sn: 2, index: 1, issued: t0.Add(2), done: t0.Add(3)})
	c.ack(ack{color: 0, sn: 2, index: 2, issued: t0.Add(4), done: t0.Add(5)})
	c.ack(ack{color: 7, sn: 2, index: 3, issued: t0.Add(4), done: t0.Add(5)}) // other color: fine
	if n := c.verifyOrder(); n == 0 {
		t.Fatal("duplicated SN not flagged")
	}
	found := false
	for _, f := range c.firstFaults(10) {
		found = found || strings.Contains(f, "SN 2 acknowledged for records 1 and 2")
	}
	if !found {
		t.Errorf("no duplicate-SN fault among %v", c.firstFaults(10))
	}
}

func TestCheckerOrder(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ok checker
	// Overlapping appends may be ordered either way.
	ok.ack(ack{color: 0, sn: 5, index: 0, issued: t0, done: t0.Add(10)})
	ok.ack(ack{color: 0, sn: 4, index: 1, issued: t0.Add(1), done: t0.Add(11)})
	ok.ack(ack{color: 0, sn: 6, index: 2, issued: t0.Add(12), done: t0.Add(13)})
	if n := ok.verifyOrder(); n != 0 {
		t.Errorf("valid history flagged: %v", ok.firstFaults(5))
	}
	var bad checker
	// An append issued after another was acknowledged got a smaller SN.
	bad.ack(ack{color: 0, sn: 5, index: 0, issued: t0, done: t0.Add(1)})
	bad.ack(ack{color: 0, sn: 3, index: 1, issued: t0.Add(2), done: t0.Add(3)})
	if n := bad.verifyOrder(); n != 1 {
		t.Errorf("decreasing SN after an ack: %d faults, want 1", n)
	}
	var invalid checker
	invalid.ack(ack{color: 0, sn: types.InvalidSN})
	if n := invalid.verifyOrder(); n != 1 {
		t.Errorf("invalid SN: %d faults, want 1", n)
	}
}

func TestCheckerSubscribeOrderAndMissing(t *testing.T) {
	var c checker
	c.ack(ack{color: 2, sn: 20, index: 1})
	c.ack(ack{color: 2, sn: 21, index: 2})
	recs := []types.Record{
		{SN: 21, Data: payload(3, 2, 32)},
		{SN: 19, Data: payload(3, 9, 32)}, // out of order
	}
	// Out of order at 19, and record 1 at SN 20 missing.
	if n := c.verifySubscribe(2, 3, recs); n != 2 {
		t.Errorf("verifySubscribe found %d faults, want 2: %v", n, c.firstFaults(5))
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP flexlog_trace_stage_seconds x
# TYPE flexlog_trace_stage_seconds histogram
flexlog_trace_stage_seconds{node="1",op="append",stage="persist",quantile="0.5"} 2e-06
flexlog_trace_stage_seconds_sum{node="1",op="append",stage="persist"} 0.004
flexlog_trace_stage_seconds_count{node="1",op="append",stage="persist"} 1000
flexlog_trace_stage_seconds{node="2",op="append",stage="persist",quantile="0.5"} 4e-06
flexlog_trace_stage_seconds_sum{node="2",op="append",stage="persist"} 0.012
flexlog_trace_stage_seconds_count{node="2",op="append",stage="persist"} 1000
flexlog_net_delivered_total 17
`
	ss := parseExposition(text)
	if len(ss) != 7 {
		t.Fatalf("parsed %d samples, want 7", len(ss))
	}
	if ss[6].name != "flexlog_net_delivered_total" || ss[6].value != 17 || len(ss[6].labels) != 0 {
		t.Errorf("unlabelled sample parsed as %+v", ss[6])
	}
	if ss[0].labels["stage"] != "persist" || ss[0].labels["quantile"] != "0.5" || ss[0].value != 2e-6 {
		t.Errorf("labelled sample parsed as %+v", ss[0])
	}
}
