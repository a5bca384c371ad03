package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexlog/internal/types"
)

// laneMsg / mutMsg are the two message classes of the lane tests.
type laneMsg struct{ N int }
type mutMsg struct{ N int }

func classifyLane(m Message) (uint64, bool) {
	_, ok := m.(laneMsg)
	return 0, ok
}

// readOnlyLanes is the read-lane half of Lanes over classifyLane.
func readOnlyLanes(workers int) Lanes {
	return Lanes{Read: LaneConfig{Workers: workers, Key: classifyLane}}
}

// TestLaneConcurrency proves classified messages are served concurrently:
// K handlers must be in flight at once, which a single delivery loop can
// never produce.
func TestLaneConcurrency(t *testing.T) {
	const workers = 4
	net := NewNetwork(ZeroLink())
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	release := make(chan struct{})
	_, err := net.RegisterWithLanes(1, func(from types.NodeID, msg Message) {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		<-release
		mu.Lock()
		inFlight--
		mu.Unlock()
	}, readOnlyLanes(workers))
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Register(2, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if err := src.Send(1, laneMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		got := inFlight
		mu.Unlock()
		if got == workers {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d handlers in flight, want %d", got, workers)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	if ls, _ := net.LaneStats(1); ls.Enqueued != workers {
		t.Fatalf("lane enqueued = %d, want %d", ls.Enqueued, workers)
	}
}

// TestLaneMutationFIFO checks that mutation traffic keeps per-sender FIFO
// order and that a read handed to the lane sees every earlier mutation
// already processed (reads complete late, never early).
func TestLaneMutationFIFO(t *testing.T) {
	net := NewNetwork(ZeroLink())
	var mutSeen atomic.Int64
	type obs struct {
		read     bool
		mutsDone int64
		n        int
	}
	obsCh := make(chan obs, 1024)
	_, err := net.RegisterWithLanes(1, func(from types.NodeID, msg Message) {
		switch m := msg.(type) {
		case mutMsg:
			obsCh <- obs{n: m.N, mutsDone: mutSeen.Add(1)}
		case laneMsg:
			obsCh <- obs{read: true, n: m.N, mutsDone: mutSeen.Load()}
		}
	}, readOnlyLanes(3))
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Register(2, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if err := src.Send(1, mutMsg{N: i}); err != nil {
			t.Fatal(err)
		}
		if err := src.Send(1, laneMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	nextMut := 0
	for seen := 0; seen < 2*rounds; seen++ {
		var o obs
		select {
		case o = <-obsCh:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d observations", seen)
		}
		if o.read {
			// Read i was enqueued after mutation i, so mutation i must
			// already have been handled when the read ran.
			if o.mutsDone < int64(o.n+1) {
				t.Fatalf("read %d ran with only %d mutations done", o.n, o.mutsDone)
			}
		} else {
			if o.n != nextMut {
				t.Fatalf("mutation order violated: got %d, want %d", o.n, nextMut)
			}
			nextMut++
		}
	}
}

// TestWithLanesReadOnly exercises the handler-level read pool used over
// custom transports.
func TestWithLanesReadOnly(t *testing.T) {
	var reads, muts atomic.Int64
	h := func(from types.NodeID, msg Message) {
		if _, ok := classifyLane(msg); ok {
			reads.Add(1)
		} else {
			muts.Add(1)
		}
	}
	wrapped, stats, stop := WithLanes(h, readOnlyLanes(2))
	for i := 0; i < 50; i++ {
		wrapped(7, laneMsg{N: i})
		wrapped(7, mutMsg{N: i})
	}
	stop() // drains the pool
	if got := reads.Load(); got != 50 {
		t.Fatalf("reads = %d, want 50", got)
	}
	if got := muts.Load(); got != 50 {
		t.Fatalf("muts = %d, want 50", got)
	}
	if s, _ := stats(); s.Enqueued != 50 || s.Dequeued != 50 {
		t.Fatalf("lane stats = %+v, want 50/50", s)
	}

	// Disabled lane passes straight through.
	plain, _, stopPlain := WithLanes(h, Lanes{})
	plain(7, laneMsg{})
	stopPlain()
	if got := reads.Load(); got != 51 {
		t.Fatalf("pass-through reads = %d, want 51", got)
	}
}
