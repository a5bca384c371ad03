package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"flexlog/internal/metrics"
	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/types"
)

// This file implements the client-side append batching & pipelining layer:
// a per-(color, shard) batcher goroutine coalesces concurrent Append calls
// into a single ordering request + data RPC (one proto.AppendReq carrying
// the callers' record sets back to back), bounded by MaxBatchRecords /
// MaxBatchBytes and a MaxBatchDelay linger timer, with MaxInFlight batches
// pipelined per shard. Because a batch is persisted and ordered as one
// unit, its records occupy one consecutive SN range in enqueue order, so
// per-caller completion is demultiplexed from the last SN and the set
// sizes the batcher keeps — no per-record acks on the wire.

// AppendFuture is the handle returned by AsyncAppend: the eventual SN of
// the caller's last record, or the per-record error if the batch failed.
type AppendFuture struct {
	color types.ColorID
	done  chan struct{}
	sn    types.SN
	err   error
}

func newAppendFuture(color types.ColorID) *AppendFuture {
	return &AppendFuture{color: color, done: make(chan struct{})}
}

// complete resolves the future. Called exactly once, by the batcher (or by
// the constructor for immediate validation failures).
func (f *AppendFuture) complete(sn types.SN, err error) {
	f.sn, f.err = sn, err
	close(f.done)
}

// failedFuture returns an already-resolved future (validation errors).
func failedFuture(color types.ColorID, err error) *AppendFuture {
	f := newAppendFuture(color)
	f.complete(types.InvalidSN, opError("append", color, types.InvalidSN, err))
	return f
}

// Done returns a channel closed when the append has completed (either way).
func (f *AppendFuture) Done() <-chan struct{} { return f.done }

// Wait blocks for completion or context cancellation and returns the SN of
// the caller's last record. Cancellation abandons the wait, not the
// append: the records may still commit.
func (f *AppendFuture) Wait(ctx context.Context) (types.SN, error) {
	select {
	case <-f.done:
		return f.sn, f.err
	case <-ctx.Done():
		return types.InvalidSN, opError("append", f.color, types.InvalidSN, ctx.Err())
	}
}

// ClientMetrics exposes the batching layer's per-client instrumentation.
type ClientMetrics struct {
	// BatchRecords/BatchBytes are value histograms of flushed batch sizes.
	BatchRecords *metrics.Histogram
	BatchBytes   *metrics.Histogram
	// QueueDelay is the time the oldest record of each batch spent queued
	// before its flush (the realized linger).
	QueueDelay *metrics.Histogram
	// Batches and BatchedAppends count flushed batches and the records
	// they carried.
	Batches        *metrics.Counter
	BatchedAppends *metrics.Counter
}

func newClientMetrics() *ClientMetrics {
	return &ClientMetrics{
		BatchRecords:   metrics.NewHistogram(),
		BatchBytes:     metrics.NewHistogram(),
		QueueDelay:     metrics.NewHistogram(),
		Batches:        metrics.NewCounter(),
		BatchedAppends: metrics.NewCounter(),
	}
}

// Metrics returns the client's batching instrumentation. The histograms
// are empty when batching is disabled.
func (c *Client) Metrics() *ClientMetrics { return c.met }

// pendingAppend is one caller's enqueued record set.
type pendingAppend struct {
	records  [][]byte
	bytes    int
	fut      *AppendFuture
	enqueued time.Time
}

// batcherKey routes appends to their per-(color, shard) batcher.
type batcherKey struct {
	color types.ColorID
	shard types.ShardID
}

// shardBatcher coalesces appends bound for one (color, shard) pair.
type shardBatcher struct {
	c     *Client
	color types.ColorID
	shard topology.ShardInfo
	cfg   BatchConfig

	mu          sync.Mutex
	queue       []*pendingAppend
	queuedRecs  int
	queuedBytes int

	wake  chan struct{} // signalled (non-blocking) on enqueue
	slots chan struct{} // pipelining: MaxInFlight unacknowledged batches
}

func newShardBatcher(c *Client, color types.ColorID, shard topology.ShardInfo, cfg BatchConfig) *shardBatcher {
	return &shardBatcher{
		c:     c,
		color: color,
		shard: shard,
		cfg:   cfg,
		wake:  make(chan struct{}, 1),
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
}

// enqueueAppend hands a record set to the batcher for its color and a
// randomly chosen shard, creating the batcher on first use.
func (c *Client) enqueueAppend(records [][]byte, color types.ColorID) (*AppendFuture, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	shard, err := c.topo.RandomShard(color, c.rng)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	key := batcherKey{color, shard.ID}
	b := c.batchers[key]
	if b == nil {
		b = newShardBatcher(c, color, shard, c.cfg.Batch)
		c.batchers[key] = b
		go b.run()
	}
	c.mu.Unlock()
	return b.enqueue(records), nil
}

func (b *shardBatcher) enqueue(records [][]byte) *AppendFuture {
	n := 0
	for _, r := range records {
		n += len(r)
	}
	fut := newAppendFuture(b.color)
	b.mu.Lock()
	b.queue = append(b.queue, &pendingAppend{records: records, bytes: n, fut: fut, enqueued: time.Now()})
	b.queuedRecs += len(records)
	b.queuedBytes += n
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	return fut
}

// run is the batcher goroutine: wait for work, linger, cut a batch,
// acquire a pipeline slot, flush. The first broadcast happens inline so
// batches reach the replicas in flush order (FIFO links then keep the
// sequencer's SN ranges in that order on the happy path).
func (b *shardBatcher) run() {
	for {
		if !b.waitForWork() {
			return
		}
		if !b.linger() {
			return
		}
		items, recs, bytes := b.cut()
		if len(items) == 0 {
			continue
		}
		select {
		case b.slots <- struct{}{}:
		case <-b.c.closedCh:
			b.fail(items, ErrClosed)
			b.drain()
			return
		}
		b.flush(items, recs, bytes)
	}
}

// waitForWork blocks until the queue is non-empty; false means shutdown.
func (b *shardBatcher) waitForWork() bool {
	for {
		b.mu.Lock()
		n := len(b.queue)
		b.mu.Unlock()
		if n > 0 {
			return true
		}
		select {
		case <-b.wake:
		case <-b.c.closedCh:
			b.drain()
			return false
		}
	}
}

// full reports whether the queued work already fills a batch.
func (b *shardBatcher) fullLocked() bool {
	return b.queuedRecs >= b.cfg.MaxBatchRecords || b.queuedBytes >= b.cfg.MaxBatchBytes
}

// lingerTimerSlack is how late OS timers may fire (coarse-HZ hosts: up to
// ~2 ms). The linger blocks on a timer only while more than this remains
// and polls the fine-grained tail, so sub-millisecond lingers — the
// batching sweet spot — are honored accurately (same tradeoff as
// simclock.Spin).
const lingerTimerSlack = 2 * time.Millisecond

// linger waits until the batch fills or the oldest record's linger
// deadline passes; false means shutdown.
func (b *shardBatcher) linger() bool {
	b.mu.Lock()
	if len(b.queue) == 0 {
		b.mu.Unlock()
		return true
	}
	full := b.fullLocked()
	deadline := b.queue[0].enqueued.Add(b.cfg.MaxBatchDelay)
	b.mu.Unlock()
	if full || b.cfg.MaxBatchDelay <= 0 {
		return true
	}
	for !full {
		rem := time.Until(deadline)
		if rem <= 0 {
			return true
		}
		if rem > lingerTimerSlack {
			timer := time.NewTimer(rem - lingerTimerSlack)
			select {
			case <-timer.C:
			case <-b.wake:
			case <-b.c.closedCh:
				timer.Stop()
				b.drain()
				return false
			}
			timer.Stop()
		} else {
			// Fine-grained tail: poll so the flush lands on the deadline
			// rather than a timer tick.
			select {
			case <-b.wake:
			case <-b.c.closedCh:
				b.drain()
				return false
			default:
				runtime.Gosched()
				continue // no wake consumed — fullness unchanged
			}
		}
		b.mu.Lock()
		full = b.fullLocked()
		b.mu.Unlock()
	}
	return true
}

// cut takes whole record sets off the queue head until the next set would
// overflow the batch bounds. A single oversized set forms its own batch —
// a caller's records are never split across ordering requests (they must
// receive one consecutive SN range).
func (b *shardBatcher) cut() (items []*pendingAppend, recs, bytes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := 0
	for ; i < len(b.queue); i++ {
		it := b.queue[i]
		if i > 0 && (recs+len(it.records) > b.cfg.MaxBatchRecords || bytes+it.bytes > b.cfg.MaxBatchBytes) {
			break
		}
		recs += len(it.records)
		bytes += it.bytes
	}
	items = b.queue[:i:i]
	b.queue = b.queue[i:]
	b.queuedRecs -= recs
	b.queuedBytes -= bytes
	return items, recs, bytes
}

// flush sends one coalesced batch: register the ack waiter, broadcast the
// AppendReq inline, then hand retries and completion to a goroutine so the
// next batch can pipeline behind this one.
func (b *shardBatcher) flush(items []*pendingAppend, recs, bytes int) {
	c := b.c
	token := c.nextToken()
	records := make([][]byte, 0, recs)
	for _, it := range items {
		records = append(records, it.records...)
	}
	req := proto.AppendReq{Color: b.color, Token: token, Records: records, Client: c.cfg.ID, Tenant: c.cfg.Tenant}
	w := c.newAppendWait(b.shard, req)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-b.slots
		b.fail(items, ErrClosed)
		return
	}
	c.appends[token] = w
	c.mu.Unlock()

	c.met.BatchRecords.RecordValue(uint64(recs))
	c.met.BatchBytes.RecordValue(uint64(bytes))
	c.met.QueueDelay.Record(time.Since(items[0].enqueued))
	c.met.Batches.Add(1)

	c.ep.Broadcast(b.shard.Replicas, w.req)
	go b.await(token, w, req, items, recs)
}

// await drives one in-flight batch to completion: retry the broadcast
// until every replica acked, the timeout expired, or the client closed.
func (b *shardBatcher) await(token types.Token, w *appendWait, req proto.AppendReq, items []*pendingAppend, recs int) {
	c := b.c
	defer func() {
		c.mu.Lock()
		delete(c.appends, token)
		c.mu.Unlock()
		<-b.slots
	}()
	deadline := time.Now().Add(c.cfg.Timeout)
	bo := c.newBackoff()
	for {
		select {
		case <-w.done:
			b.complete(items, recs, w.sn)
			return
		case <-time.After(bo.nextAfter(c.takeAppendHint(w))):
			if time.Now().After(deadline) {
				c.mu.Lock()
				rej := w.rej
				c.mu.Unlock()
				if rej != nil {
					b.fail(items, fmt.Errorf("%w: batched append %v to %v", rej, token, b.color))
					return
				}
				b.fail(items, fmt.Errorf("%w: batched append %v to %v", ErrTimeout, token, b.color))
				return
			}
			// Epoch fencing, as on the unbatched path: rebuild the ack
			// barrier from the shard's current membership minus prior
			// responders before re-broadcasting. A removed shard fails the
			// batch with the typed retryable rejection.
			cur, err := c.topo.Shard(b.shard.ID)
			if err != nil {
				b.fail(items, fmt.Errorf("%w: shard %v removed during batched append %v", ErrReconfiguring, b.shard.ID, token))
				return
			}
			c.mu.Lock()
			if !w.closed {
				w.coverLocked(cur)
			}
			c.mu.Unlock()
			select {
			case <-w.done:
				b.complete(items, recs, w.sn)
				return
			default:
			}
			c.ep.Broadcast(cur.Replicas, req)
		case <-c.closedCh:
			b.fail(items, ErrClosed)
			return
		}
	}
}

// complete demultiplexes the batch's last SN into per-caller SNs: the sets
// occupy [last-recs+1, last] in enqueue order, so caller i's last record
// sits at last - (records after set i).
func (b *shardBatcher) complete(items []*pendingAppend, recs int, last types.SN) {
	if !last.Valid() {
		b.fail(items, fmt.Errorf("flexlog: batch committed without an SN"))
		return
	}
	b.c.rememberPlacement(b.color, last, recs, b.shard.ID)
	b.c.met.BatchedAppends.Add(uint64(recs))
	cum := 0
	for _, it := range items {
		cum += len(it.records)
		it.fut.complete(last-types.SN(recs-cum), nil)
	}
}

// fail delivers err to every caller of the batch, individually wrapped.
func (b *shardBatcher) fail(items []*pendingAppend, err error) {
	for _, it := range items {
		it.fut.complete(types.InvalidSN, opError("append", b.color, types.InvalidSN, err))
	}
}

// drain fails everything still queued (shutdown path).
func (b *shardBatcher) drain() {
	b.mu.Lock()
	items := b.queue
	b.queue = nil
	b.queuedRecs, b.queuedBytes = 0, 0
	b.mu.Unlock()
	b.fail(items, ErrClosed)
}
