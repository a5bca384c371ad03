package replica

import (
	"runtime"
	"sync"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file implements the replica's parallel write path: the keyed write
// lane that spreads mutation traffic across workers by color, and the
// order-request coalescer that batches the replica→sequencer edge.
//
// The write lane relies on two properties for correctness:
//
//   - per-color FIFO: the lane pins each color to one worker and the
//     delivery loop dispatches in arrival order, so two messages of the
//     same color are never reordered or concurrent. An AppendReq and the
//     OrderRespBatch that commits it share a color, hence a worker.
//   - cross-color independence: appends and commits of different colors
//     share no state beyond r.mu (brief, pending-map bookkeeping), the
//     storage stack (per-color index locks + narrow allocator lock, see
//     internal/storage), and atomic counters. PM durability waits — the
//     long pole — overlap across workers and fold into shared group-commit
//     windows.
//
// Trim, sync-phase, and multi-append traffic stays on the serialized
// delivery loop: it is rare, touches multi-color state, and its protocols
// assume an ordered view of their own messages.

// writeClass keys mutation-class messages by color for the write lane.
// Only messages whose handlers are safe to run concurrently per color are
// classified; everything else stays on the delivery loop.
func writeClass(msg transport.Message) (uint64, bool) {
	switch m := msg.(type) {
	case proto.AppendReq:
		return uint64(m.Color), true
	case proto.OrderRespBatch:
		return uint64(m.Color), true
	}
	return 0, false
}

// lanes builds the endpoint's lane configuration: the read lane
// (readpath.go) plus the keyed write lane.
func (r *Replica) lanes() transport.Lanes {
	l := transport.Lanes{Read: r.laneConfig()}
	if r.cfg.WriteWorkers > 0 {
		l.Write = transport.WriteLaneConfig{Workers: r.cfg.WriteWorkers, Key: writeClass, QoS: r.laneQoS()}
		if r.appendTr != nil {
			l.Write.Observe = func(queueWait, _ time.Duration) {
				r.appendTr.ObserveStage("lane_wait", queueWait)
			}
		}
	}
	return l
}

// onOrderRespBatch commits a batch of assignments. Items share the
// batch's color, so on a write lane the whole batch runs on that color's
// worker, FIFO with the appends it commits.
func (r *Replica) onOrderRespBatch(m proto.OrderRespBatch) {
	for _, it := range m.Items {
		r.onOrderResp(orderResp{OrderRespItem: it, Color: m.Color})
	}
}

// ---- Order-request coalescing ----

// orderCoalescer accumulates order requests per color for one batching
// window and ships them as a single OrderReqBatch per color — the
// replica→leaf edge of the ordering tree batches the same way the tree
// already aggregates upward (§5.2). With W concurrent writers on one
// shard, the sequencer edge carries ~2 messages per window instead of ~2W.
type orderCoalescer struct {
	r *Replica

	mu      sync.Mutex
	byColor map[types.ColorID][]proto.OrderReq
	order   []types.ColorID // flush in first-arrival order

	kick chan struct{}
}

func newOrderCoalescer(r *Replica) *orderCoalescer {
	return &orderCoalescer{
		r:       r,
		byColor: make(map[types.ColorID][]proto.OrderReq),
		kick:    make(chan struct{}, 1),
	}
}

// enqueue adds one order request to the color's pending batch and wakes
// the flusher.
func (c *orderCoalescer) enqueue(color types.ColorID, it proto.OrderReq) {
	c.mu.Lock()
	q, ok := c.byColor[color]
	if !ok {
		c.order = append(c.order, color)
	}
	c.byColor[color] = append(q, it)
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// loop mirrors the sequencer's flusher: each kick opens one batching
// window (Config.OrderBatchInterval), then everything pending flushes.
func (c *orderCoalescer) loop() {
	defer c.r.wg.Done()
	window := c.r.cfg.OrderBatchInterval
	for {
		select {
		case <-c.r.stopCh:
			return
		case <-c.kick:
		}
		if window > 0 {
			if window >= time.Millisecond {
				time.Sleep(window)
			} else {
				start := time.Now()
				for time.Since(start) < window {
					runtime.Gosched() // let concurrent appends join the window
				}
			}
		}
		c.flush()
	}
}

// flush sends one OrderReqBatch per pending color to the leaf sequencer.
func (c *orderCoalescer) flush() {
	c.mu.Lock()
	if len(c.order) == 0 {
		c.mu.Unlock()
		return
	}
	byColor := c.byColor
	order := c.order
	c.byColor = make(map[types.ColorID][]proto.OrderReq)
	c.order = nil
	c.mu.Unlock()

	r := c.r
	sh, err := r.topo.Shard(r.cfg.Shard)
	if err != nil {
		// The topology cannot name our shard: the requests are dropped
		// here and re-driven by the pending-order retry timer.
		var n uint64
		for _, items := range byColor {
			n += uint64(len(items))
		}
		r.stats.oreqDrops.Add(n)
		return
	}
	seq := r.sequencer()
	replicas := r.orderReplicas(sh.Replicas)
	for _, color := range order {
		r.ep.Send(seq, proto.OrderReqBatch{
			Color: color, Shard: r.cfg.Shard, Replicas: replicas, Items: byColor[color],
		})
	}
}
