package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects raw latencies so percentiles are exact, not bucketed.
// Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

// count returns the number of samples recorded.
func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// percentile returns the q-th percentile (q in [0,100]) by the nearest-rank
// method, and the number of samples strictly above it. It returns ok=false
// on an empty set.
func (s *samples) percentile(q float64) (v time.Duration, above int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.d)
	if n == 0 {
		return 0, 0, false
	}
	sort.Slice(s.d, func(i, j int) bool { return s.d[i] < s.d[j] })
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v = s.d[rank-1]
	above = n - sort.Search(n, func(i int) bool { return s.d[i] > v })
	return v, above, true
}

// mean returns the arithmetic mean (0 on an empty set).
func (s *samples) mean() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.d {
		sum += d
	}
	return sum / time.Duration(len(s.d))
}

// pctLine renders one percentile with its sample count and the number of
// samples beyond it, the form every printed timing takes.
func (s *samples) pctLine(name string, q float64) string {
	v, above, ok := s.percentile(q)
	if !ok {
		return fmt.Sprintf("%-28s n/a (0 samples)", name)
	}
	return fmt.Sprintf("%-28s %10.1f us  (n=%d, %d above)", name, us(v), s.count(), above)
}

// subWindow is the width of the slices a series is split into.
const subWindow = time.Second

// minSubSamples is the fewest samples a slice needs to count: enough for
// a p90 to have ten samples beyond it.
const minSubSamples = 100

// series is a set of latencies split into one-second slices by when each
// was taken. Its percentiles are the median over slices of each slice's
// percentile, so a burst confined to one slice (a GC cycle, a neighbour's
// load) moves the figure little; the whole-window percentile is printed
// beside it. Safe for concurrent use.
type series struct {
	all  samples
	mu   sync.Mutex
	subs map[int]*samples
}

// add records latency d, taken at offset at from the start of the window.
func (s *series) add(at, d time.Duration) {
	s.all.add(d)
	s.mu.Lock()
	if s.subs == nil {
		s.subs = make(map[int]*samples)
	}
	k := int(at / subWindow)
	sub := s.subs[k]
	if sub == nil {
		sub = &samples{}
		s.subs[k] = sub
	}
	s.mu.Unlock()
	sub.add(d)
}

func (s *series) count() int          { return s.all.count() }
func (s *series) mean() time.Duration { return s.all.mean() }

// percentile returns the median over full slices of the slices' q-th
// percentiles and how many slices it was taken over. With no full slice it
// falls back to the whole set.
func (s *series) percentile(q float64) (time.Duration, int) {
	s.mu.Lock()
	subs := make([]*samples, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	var vs []float64
	for _, sub := range subs {
		if sub.count() >= minSubSamples {
			v, _, _ := sub.percentile(q)
			vs = append(vs, float64(v))
		}
	}
	if len(vs) == 0 {
		v, _, _ := s.all.percentile(q)
		return v, 0
	}
	return time.Duration(median(vs)), len(vs)
}

// pctLine renders one percentile with the number of slices and samples
// behind it, and the whole-window percentile with the samples beyond it.
func (s *series) pctLine(name string, q float64) string {
	v, slices := s.percentile(q)
	w, above, ok := s.all.percentile(q)
	if !ok {
		return fmt.Sprintf("%-28s n/a (0 samples)", name)
	}
	return fmt.Sprintf("%-28s %10.1f us  (median of %d slices; n=%d; whole window %.1f us, %d above)",
		name, us(v), slices, s.count(), us(w), above)
}

// median returns the median of xs (0 on empty input); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
