package transport

import (
	"sync"
	"testing"
	"time"

	"flexlog/internal/types"
)

// keyedMsg is the write-class message of these tests: Key is the lane key
// (a color in the replica), Seq the per-key send order.
type keyedMsg struct {
	Key uint64
	Seq int
}

func keyOf(m Message) (uint64, bool) {
	km, ok := m.(keyedMsg)
	if !ok {
		return 0, false
	}
	return km.Key, true
}

// TestWriteLanePerKeyFIFO floods a keyed write lane from one sender and
// verifies that every key's messages are handled in send order, whatever
// worker they land on.
func TestWriteLanePerKeyFIFO(t *testing.T) {
	const keys = 8
	const perKey = 200
	net := NewNetwork(ZeroLink())
	var mu sync.Mutex
	lastSeq := make(map[uint64]int)
	violations := 0
	handled := 0
	_, err := net.RegisterWithLanes(1, func(from types.NodeID, msg Message) {
		km := msg.(keyedMsg)
		mu.Lock()
		if km.Seq != lastSeq[km.Key]+1 {
			violations++
		}
		lastSeq[km.Key] = km.Seq
		handled++
		mu.Unlock()
	}, Lanes{Write: LaneConfig{Workers: 3, Key: keyOf}})
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Register(2, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= perKey; seq++ {
		for k := uint64(0); k < keys; k++ {
			if err := src.Send(1, keyedMsg{Key: k, Seq: seq}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		done := handled == keys*perKey
		v := violations
		mu.Unlock()
		if done {
			if v != 0 {
				t.Fatalf("%d per-key FIFO violations", v)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("handled %d of %d", handled, keys*perKey)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	_, ws := net.LaneStats(1)
	if ws.Enqueued != keys*perKey || ws.Dequeued != keys*perKey {
		t.Fatalf("write lane stats = %+v", ws)
	}
	var perWorker uint64
	for _, n := range ws.PerWorker {
		perWorker += n
	}
	if perWorker != keys*perKey {
		t.Fatalf("per-worker sum = %d", perWorker)
	}
	if nd := net.NodeDelivered(); nd[1] != keys*perKey {
		t.Fatalf("NodeDelivered = %v", nd)
	}
}

// TestWriteLaneConcurrencyAcrossKeys proves different keys are served in
// parallel: with W workers and W distinct keys, W handlers must be in
// flight at once.
func TestWriteLaneConcurrencyAcrossKeys(t *testing.T) {
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
	}, Lanes{Write: LaneConfig{Workers: workers, Key: keyOf}})
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Register(2, func(types.NodeID, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if err := src.Send(1, keyedMsg{Key: uint64(i), Seq: 1}); err != nil {
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
}

// TestWithLanesClassifiesBothWays exercises the handler-level wrapper used
// by TCP deployments: read-class, write-class and inline messages all
// reach the handler, and the stop function drains both pools.
func TestWithLanesClassifiesBothWays(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	h := func(from types.NodeID, msg Message) {
		mu.Lock()
		defer mu.Unlock()
		switch msg.(type) {
		case laneMsg:
			seen["read"]++
		case keyedMsg:
			seen["write"]++
		default:
			seen["inline"]++
		}
	}
	wrapped, stats, stop := WithLanes(h, Lanes{
		Read:  LaneConfig{Workers: 2, Key: classifyLane},
		Write: LaneConfig{Workers: 2, Key: keyOf},
	})
	for i := 1; i <= 10; i++ {
		wrapped(2, laneMsg{N: i})
		wrapped(2, keyedMsg{Key: uint64(i % 3), Seq: i})
		wrapped(2, mutMsg{N: i})
	}
	stop()
	mu.Lock()
	defer mu.Unlock()
	if seen["read"] != 10 || seen["write"] != 10 || seen["inline"] != 10 {
		t.Fatalf("seen = %v", seen)
	}
	rs, ws := stats()
	if rs.Dequeued != 10 {
		t.Fatalf("read stats = %+v", rs)
	}
	if ws.Dequeued != 10 {
		t.Fatalf("write stats = %+v", ws)
	}
}
