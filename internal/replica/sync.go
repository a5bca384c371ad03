package replica

import (
	"sort"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file implements the §6.3 recovery protocols:
//
//   - replica crash/recovery with the sync-phase: the recovering replica
//     pauses the shard, peers exchange (epoch, max committed SN), outdated
//     replicas pull missing entries from the most up-to-date one through
//     the budgeted catch-up pull (catchup.go), and an all-to-all SyncDone
//     barrier gates the return to operational mode;
//   - sequencer failover handling: on SeqInit from a new leader the shard
//     passes through a sync-phase and only then acknowledges, guaranteeing
//     that interrupted broadcasts of the previous epoch are received by all
//     replicas before the new epoch starts;
//   - re-issuing of order requests for records that have no SN after the
//     sync-phase.

// syncRun tracks one sync-phase this replica participates in.
type syncRun struct {
	id           uint64
	coordinator  types.NodeID
	states       map[types.NodeID]proto.SyncState // coordinator only
	dones        map[types.NodeID]bool
	caughtUp     bool
	participants []types.NodeID // shard replicas (incl. self)

	// Retry state: sync messages are fire-and-forget, so on lossy links
	// every stage is re-driven until the run completes (retrySyncRuns).
	// progress is the run's start, moved forward by every catch-up round
	// that ingested records, so only a run that stopped moving is aborted.
	progress  time.Time
	lastDrive time.Time
}

// syncAbortRetries bounds how long a sync run may go without progress
// before it is abandoned, in units of RetryTimeout. Retries recover lost
// messages, but a run whose peer CRASHED mid-run is unrecoverable: Crash
// wipes the peer's syncRuns, so it can neither answer the old run's
// barrier nor its coordinator role. Such runs are dropped; a coordinator
// restarts with a fresh id over the current peers (longer than any
// structural nemesis window, so only truly wedged runs are aborted).
const syncAbortRetries = 10

// Crash simulates a crash failure of the replica process: the devices stop
// and all messages are ignored until Recover.
func (r *Replica) Crash() {
	r.mode.store(ModeCrashed)
	r.held.drain() // parked reads are dropped; clients time out and retry
	r.mu.Lock()
	r.pending = make(map[types.Token]*pendingOrder)
	r.trims = make(map[uint64]*trimWait)
	r.syncRuns = make(map[uint64]*syncRun)
	r.pulls = make(map[uint64]*pull)
	r.mu.Unlock()
	r.st.Crash()
}

// Recover restarts the replica after a crash: storage is re-opened and
// scanned, then the sync-phase runs so the shard converges before this
// replica serves again (§6.3 "When a replica recovers, a synchronization
// phase takes place…").
func (r *Replica) Recover() error {
	if err := r.st.Recover(); err != nil {
		return err
	}
	r.mode.store(ModeSyncing)
	r.maxSeen.reset() // the sync-phase rebuilds the watermarks from storage
	r.startSyncPhase()
	return nil
}

// startSyncPhase begins a sync-phase with this replica as coordinator.
func (r *Replica) startSyncPhase() {
	peers := r.shardPeers()
	r.mu.Lock()
	r.syncSeq++
	id := uint64(r.cfg.ID)<<32 | r.syncSeq
	run := &syncRun{
		id:           id,
		coordinator:  r.cfg.ID,
		states:       make(map[types.NodeID]proto.SyncState),
		dones:        make(map[types.NodeID]bool),
		participants: append([]types.NodeID{r.cfg.ID}, peers...),
	}
	run.progress = time.Now()
	run.lastDrive = run.progress
	r.syncRuns[id] = run
	r.mode.store(ModeSyncing)
	r.stats.syncs.Add(1)
	// Record our own state.
	run.states[r.cfg.ID] = r.syncStateLocked(id)
	r.mu.Unlock()

	if len(peers) == 0 {
		// Singleton shard: nothing to converge with.
		r.mu.Lock()
		delete(r.syncRuns, id)
		if len(r.syncRuns) == 0 {
			r.finishSyncLocked()
		}
		r.mu.Unlock()
		return
	}
	r.ep.Broadcast(peers, proto.SyncRequest{ID: id, From: r.cfg.ID})
}

// syncStateLocked is this replica's SyncState for run id: its epoch and,
// per color, its committed frontier and trim frontier. The trims ride
// along so a recovering replica learns about trims that ran during its
// downtime. Caller holds r.mu (storage does its own locking).
func (r *Replica) syncStateLocked(id uint64) proto.SyncState {
	st := proto.SyncState{
		ID: id, Epoch: r.epoch, From: r.cfg.ID,
		MaxSNs:  make(map[types.ColorID]types.SN),
		Trimmed: make(map[types.ColorID]types.SN),
	}
	for _, c := range r.topo.Colors() {
		if sn := r.st.MaxSN(c); sn.Valid() {
			st.MaxSNs[c] = sn
		}
		if sn := r.st.Trimmed(c); sn.Valid() {
			st.Trimmed[c] = sn
		}
	}
	return st
}

func (r *Replica) onSyncRequest(from types.NodeID, m proto.SyncRequest) {
	r.mu.Lock()
	// Enter sync mode: stop processing appends and sequencer messages
	// (§6.3). Reads keep being served — committed entries stay readable.
	// Concurrent recoveries each coordinate their own run; a replica
	// participates in all of them and resumes when the last completes.
	r.mode.store(ModeSyncing)
	if r.syncRuns[m.ID] == nil {
		r.syncRuns[m.ID] = &syncRun{
			id:           m.ID,
			coordinator:  m.From,
			dones:        make(map[types.NodeID]bool),
			participants: append([]types.NodeID{r.cfg.ID}, r.shardPeers()...),
			progress:     time.Now(),
		}
	}
	r.syncRuns[m.ID].lastDrive = time.Now()
	state := r.syncStateLocked(m.ID)
	r.mu.Unlock()
	r.ep.Send(m.From, state)
}

func (r *Replica) onSyncState(m proto.SyncState) {
	r.mu.Lock()
	run := r.syncRuns[m.ID]
	if run == nil || run.coordinator != r.cfg.ID {
		r.mu.Unlock()
		return
	}
	run.states[m.From] = m
	if len(run.states) < len(run.participants) {
		r.mu.Unlock()
		return
	}
	// All states collected. If epochs disagree, adopt the highest (the
	// paper retries until the old sequencer is gone; with our reliable
	// in-proc links adopting the maximum converges immediately).
	maxEpoch := r.epoch
	for _, st := range run.states {
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}
	r.epoch = maxEpoch
	// Determine the most up-to-date replica: the one with the highest
	// total committed frontier (ties broken by node id for determinism).
	best := r.cfg.ID
	bestScore := scoreFrontier(run.states[r.cfg.ID].MaxSNs)
	ids := make([]types.NodeID, 0, len(run.states))
	for id := range run.states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	maxFrontier := make(map[types.ColorID]types.SN)
	maxTrimmed := make(map[types.ColorID]types.SN)
	for _, id := range ids {
		st := run.states[id]
		for c, sn := range st.MaxSNs {
			if sn > maxFrontier[c] {
				maxFrontier[c] = sn
			}
		}
		for c, sn := range st.Trimmed {
			if sn > maxTrimmed[c] {
				maxTrimmed[c] = sn
			}
		}
		if sc := scoreFrontier(st.MaxSNs); sc > bestScore || (sc == bestScore && id > best) {
			best, bestScore = id, sc
		}
	}
	epoch := r.epoch
	id := run.id
	run.lastDrive = time.Now()
	participants := append([]types.NodeID(nil), run.participants...)
	r.mu.Unlock()

	// Round 2: broadcast the most up-to-date replica id (§6.3).
	msg := proto.SyncCatchup{ID: id, UpToDate: best, Max: maxFrontier, Trimmed: maxTrimmed, Epoch: epoch, From: r.cfg.ID}
	for _, p := range participants {
		if p == r.cfg.ID {
			r.onSyncCatchup(msg)
		} else {
			r.ep.Send(p, msg)
		}
	}
}

// scoreFrontier sums a frontier's counters as an up-to-dateness measure.
func scoreFrontier(m map[types.ColorID]types.SN) uint64 {
	var total uint64
	for _, sn := range m {
		total += uint64(sn)
	}
	return total
}

func (r *Replica) onSyncCatchup(m proto.SyncCatchup) {
	r.mu.Lock()
	run := r.syncRuns[m.ID]
	if run == nil {
		r.mu.Unlock()
		return
	}
	if m.Epoch > r.epoch {
		r.epoch = m.Epoch
	}
	// Converge on the shard's trim frontier first: records trimmed while
	// this replica was down must not be resurrected (and must not be
	// re-fetched below).
	for c, sn := range m.Trimmed {
		if sn > r.st.Trimmed(c) {
			r.st.Trim(c, sn)
		}
	}
	// Work out whether we are missing anything the up-to-date replica has
	// ("the outdated replicas fetch the missing entries from the most
	// up-to-date one"): pull until a round comes back with More unset,
	// then join the barrier (onCatchupEntries).
	cursor := r.catchupCursor()
	behind := false
	for c, maxSN := range m.Max {
		if cursor[c] < maxSN {
			behind = true
		}
	}
	run.lastDrive = time.Now()
	if !behind || m.UpToDate == r.cfg.ID {
		run.caughtUp = true
		r.mu.Unlock()
		r.broadcastSyncDone(m.ID)
		return
	}
	r.pulls[m.ID] = &pull{donor: m.UpToDate}
	r.mu.Unlock()
	r.sendCatchupFetch(m.ID)
}

// broadcastSyncDone performs this replica's half of the all-to-all barrier.
func (r *Replica) broadcastSyncDone(id uint64) {
	r.mu.Lock()
	run := r.syncRuns[id]
	if run == nil {
		r.mu.Unlock()
		return
	}
	run.dones[r.cfg.ID] = true
	run.lastDrive = time.Now()
	participants := append([]types.NodeID(nil), run.participants...)
	done := r.syncBarrierDoneLocked(run)
	r.mu.Unlock()
	for _, p := range participants {
		if p != r.cfg.ID {
			r.ep.Send(p, proto.SyncDone{ID: id, From: r.cfg.ID})
		}
	}
	if done {
		r.completeSync(id)
	}
}

func (r *Replica) onSyncDone(m proto.SyncDone) {
	r.mu.Lock()
	run := r.syncRuns[m.ID]
	if run == nil {
		r.mu.Unlock()
		return
	}
	run.dones[m.From] = true
	done := r.syncBarrierDoneLocked(run)
	r.mu.Unlock()
	if done {
		r.completeSync(m.ID)
	}
}

// syncBarrierDoneLocked reports whether every participant (including self)
// has broadcast SyncDone. Caller holds r.mu.
func (r *Replica) syncBarrierDoneLocked(run *syncRun) bool {
	for _, p := range run.participants {
		if !run.dones[p] {
			return false
		}
	}
	return true
}

// completeSync returns to operational mode and re-issues order requests for
// records without SNs ("replicas might still need to re-issue OReq requests
// for records that have not been assigned an SN after the sync-phase").
func (r *Replica) completeSync(id uint64) {
	r.mu.Lock()
	if r.syncRuns[id] == nil {
		r.mu.Unlock()
		return
	}
	delete(r.syncRuns, id)
	delete(r.pulls, id)
	if len(r.syncRuns) == 0 {
		r.finishSyncLocked()
	}
	r.mu.Unlock()
}

// finishSyncLocked transitions to operational, acks a pending SeqInit, and
// re-drives uncommitted batches. Caller holds r.mu.
func (r *Replica) finishSyncLocked() {
	r.mode.store(ModeOperational)
	initSeq, initEpo := r.initSeq, r.initEpo
	r.initSeq, r.initEpo = 0, 0
	if initSeq != 0 {
		r.seqNode = initSeq
		if initEpo > r.epoch {
			r.epoch = initEpo
		}
	}
	id := r.cfg.ID
	ep := r.ep
	uncommitted := r.st.Uncommitted()
	for _, b := range uncommitted {
		if po := r.pending[b.Token]; po == nil {
			r.pending[b.Token] = &pendingOrder{
				color:    b.Color,
				nRecords: uint32(len(b.Records)),
				clients:  map[types.NodeID]bool{},
				sentAt:   time.Now(),
			}
		}
	}
	go func() {
		if initSeq != 0 {
			ep.Send(initSeq, proto.SeqInitAck{Epoch: initEpo, From: id})
		}
		for _, b := range uncommitted {
			r.sendOrderReq(b.Token, b.Color, uint32(len(b.Records)))
		}
	}()
}

// retrySyncRuns re-drives stalled sync-phases. Every sync message is
// fire-and-forget, so on lossy links any stage can be lost; each stage is
// therefore idempotent and re-driven from this replica's current state
// until the run's all-to-all barrier completes:
//
//   - a coordinator still collecting states re-broadcasts SyncRequest;
//   - a replica still pulling is left to its pull, which re-drives
//     itself (retryPulls);
//   - a replica past catch-up re-broadcasts its SyncDone;
//   - a participant still waiting for the coordinator's round 2 re-sends
//     its SyncState (the coordinator re-broadcasts SyncCatchup when its
//     state set is already complete).
func (r *Replica) retrySyncRuns(now time.Time) {
	retry := r.cfg.RetryTimeout
	if retry <= 0 {
		return
	}
	type action struct {
		to  []types.NodeID
		msg transport.Message
	}
	var acts []action
	restart, aborted := false, false
	r.mu.Lock()
	for _, run := range r.syncRuns {
		if now.Sub(run.progress) > syncAbortRetries*retry {
			// Wedged beyond repair (a peer crashed and lost the run's
			// state): abandon the run. A coordinator re-runs the whole
			// phase with a fresh id; a participant whose last run this was
			// resumes — it was consistent when the foreign run started.
			delete(r.syncRuns, run.id)
			delete(r.pulls, run.id)
			r.stats.syncAborts.Add(1)
			aborted = true
			if run.coordinator == r.cfg.ID {
				restart = true
			}
			continue
		}
		if r.pulls[run.id] != nil || now.Sub(run.lastDrive) < retry {
			continue
		}
		run.lastDrive = now
		r.stats.syncRetries.Add(1)
		switch {
		case run.coordinator == r.cfg.ID && len(run.states) < len(run.participants):
			var missing []types.NodeID
			for _, p := range run.participants {
				if _, ok := run.states[p]; !ok {
					missing = append(missing, p)
				}
			}
			acts = append(acts, action{to: missing, msg: proto.SyncRequest{ID: run.id, From: r.cfg.ID}})
		case run.caughtUp:
			var peers []types.NodeID
			for _, p := range run.participants {
				if p != r.cfg.ID && !run.dones[p] {
					peers = append(peers, p)
				}
			}
			acts = append(acts, action{to: peers, msg: proto.SyncDone{ID: run.id, From: r.cfg.ID}})
		default:
			// Waiting for SyncCatchup: nudge the coordinator with our state.
			acts = append(acts, action{to: []types.NodeID{run.coordinator}, msg: r.syncStateLocked(run.id)})
		}
	}
	// Only the abort path may finish here: Recover stores ModeSyncing just
	// before startSyncPhase inserts its run, so an unconditional
	// empty-map finish could race that window and serve un-synced state.
	if aborted && len(r.syncRuns) == 0 && !restart && r.mode.load() == ModeSyncing {
		r.finishSyncLocked()
	}
	r.mu.Unlock()
	if restart {
		r.startSyncPhase()
	}
	for _, a := range acts {
		for _, to := range a.to {
			r.ep.Send(to, a.msg)
		}
	}
}

// onSeqInit handles a new sequencer's initialization request (§6.3
// "Sequencer failures"): record the new leader, run a sync-phase with the
// shard, and ack only once the shard is synchronized to the previous epoch.
func (r *Replica) onSeqInit(m proto.SeqInit) {
	r.mu.Lock()
	if m.Epoch < r.epoch {
		r.mu.Unlock()
		return // stale leader
	}
	r.initSeq = m.From
	r.initEpo = m.Epoch
	alreadySyncing := len(r.syncRuns) > 0
	coordinator := r.syncCoordinator()
	r.mu.Unlock()
	if alreadySyncing {
		return // the running sync-phase will ack on completion
	}
	if coordinator == r.cfg.ID {
		r.startSyncPhase()
	}
	// Non-coordinators wait for the coordinator's SyncRequest; if the
	// coordinator's SeqInit was lost, the retry path (sequencer re-sending
	// SeqInit) re-triggers this handler.
}

// syncCoordinator picks the deterministic sync-phase initiator for
// sequencer-failover syncs: the smallest replica id of the shard.
func (r *Replica) syncCoordinator() types.NodeID {
	sh, err := r.topo.Shard(r.cfg.Shard)
	if err != nil || len(sh.Replicas) == 0 {
		return r.cfg.ID
	}
	min := sh.Replicas[0]
	for _, id := range sh.Replicas[1:] {
		if id < min {
			min = id
		}
	}
	return min
}
