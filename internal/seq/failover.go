package seq

import (
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/types"
)

// This file implements §5.2 "Sequencer replication": heartbeats, split-brain
// avoidance, the epoch-claim election among backups, and the SeqInit
// handshake with the region's replicas that gates a new leader's service.

// timerLoop drives heartbeats, failure detection and in-flight resends.
func (s *Sequencer) timerLoop() {
	defer s.stopped.Done()
	interval := s.cfg.HeartbeatInterval
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		s.tick()
	}
}

func (s *Sequencer) tick() {
	now := time.Now()
	s.mu.Lock()
	role := s.role
	epoch := s.epoch
	s.mu.Unlock()

	switch role {
	case RoleLeader:
		s.leaderTick(now, epoch)
	case RoleBackup:
		s.backupTick(now, epoch)
	}
	s.resendExpired(now)
}

// group returns this sequencer group's stable member list (the initial
// leader and its 2f backups; leadership moves within this set).
func (s *Sequencer) group() []types.NodeID {
	si, err := s.topo.Sequencer(s.cfg.Region)
	if err != nil {
		return nil
	}
	return si.Members
}

// peers returns the group without this node.
func (s *Sequencer) peers() []types.NodeID {
	var out []types.NodeID
	for _, id := range s.group() {
		if id != s.cfg.ID {
			out = append(out, id)
		}
	}
	return out
}

// majority returns the quorum size of the group (f+1 of 2f+1).
func (s *Sequencer) majority() int {
	n := len(s.group())
	if n == 0 {
		return 1
	}
	return n/2 + 1
}

func (s *Sequencer) leaderTick(now time.Time, epoch types.Epoch) {
	peers := s.peers()
	for _, b := range peers {
		s.ep.Send(b, proto.SeqHeartbeat{Epoch: epoch, From: s.cfg.ID})
	}
	// Re-send SeqInit to replicas that have not acknowledged yet (their
	// sync-phase may still be running, or the message raced a recovery).
	s.mu.Lock()
	if !s.serving && s.initAcks != nil {
		var unacked []types.NodeID
		for r, acked := range s.initAcks {
			if !acked {
				unacked = append(unacked, r)
			}
		}
		id := s.cfg.ID
		s.mu.Unlock()
		for _, r := range unacked {
			s.ep.Send(r, proto.SeqInit{Epoch: epoch, From: id})
		}
	} else {
		s.mu.Unlock()
	}
	if len(peers) == 0 {
		return // singleton group: no split brain possible
	}
	// Split-brain avoidance: count peers acked within the failure window;
	// with self, we need a majority or we must stand down (§5.2 "a (old)
	// sequencer shuts down if it does not receive heartbeats from the
	// majority for some time").
	s.mu.Lock()
	live := 1 // self
	for _, t := range s.hbAcks {
		if now.Sub(t) <= s.cfg.FailureTimeout {
			live++
		}
	}
	if live < s.majority() && s.sawFirstAck() {
		s.role = RoleBackup
		s.stopServingLocked()
		s.lastLeaderHB = now // restart failure detection as a backup
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// sawFirstAck avoids a leader standing down before backups had any chance
// to ack (process start). Caller holds s.mu.
func (s *Sequencer) sawFirstAck() bool {
	return len(s.hbAcks) > 0
}

func (s *Sequencer) backupTick(now time.Time, epoch types.Epoch) {
	s.mu.Lock()
	silent := now.Sub(s.lastLeaderHB)
	claiming := s.initEpoch > s.epoch // already running a claim/init
	if claiming && now.Sub(s.claimStart) > 4*s.cfg.FailureTimeout {
		// The claim stalled (e.g. the quorum was partitioned away):
		// abandon it so the next tick can try a fresh epoch.
		s.initEpoch = 0
		s.initAcks = nil
		claiming = false
	}
	s.mu.Unlock()
	if claiming {
		return
	}
	// Stagger candidacy so the highest node id moves first (§5.2: the new
	// sequencer is the backup with the highest epoch and node-id).
	if silent < s.cfg.FailureTimeout+s.staggerDelay() {
		return
	}
	// Claim one above everything we know: both the last epoch we saw a
	// leader use and the highest epoch we granted to someone else. This
	// guarantees at most one leader per epoch even across chained
	// failovers, keeping SNs strictly increasing (§5.2 Safety).
	s.mu.Lock()
	base := epoch
	if s.grantedEpoch > base {
		base = s.grantedEpoch
	}
	s.mu.Unlock()
	s.startClaim(base + 1)
}

// staggerDelay gives higher-id nodes a shorter wait before claiming.
func (s *Sequencer) staggerDelay() time.Duration {
	var maxID types.NodeID
	for _, id := range s.group() {
		if id > maxID {
			maxID = id
		}
	}
	diff := time.Duration(maxID - s.cfg.ID)
	return diff * s.cfg.HeartbeatInterval
}

// startClaim begins an election for the given epoch.
func (s *Sequencer) startClaim(epoch types.Epoch) {
	s.mu.Lock()
	if s.role != RoleBackup || epoch <= s.epoch || epoch <= s.grantedEpoch {
		s.mu.Unlock()
		return
	}
	s.initEpoch = epoch
	s.claimStart = time.Now()
	s.initAcks = map[types.NodeID]bool{s.cfg.ID: true} // vote for self
	// Self-grant.
	if epoch > s.grantedEpoch {
		s.grantedEpoch = epoch
		s.grantedTo = s.cfg.ID
	}
	peers := s.peers()
	id := s.cfg.ID
	s.mu.Unlock()
	for _, p := range peers {
		s.ep.Send(p, proto.EpochClaim{Epoch: epoch, From: id})
	}
	// Singleton group wins immediately.
	s.mu.Lock()
	if len(s.initAcks) >= s.majority() && s.initEpoch == epoch {
		s.becomeLeaderLocked(epoch)
	}
	s.mu.Unlock()
}

func (s *Sequencer) onEpochClaim(m proto.EpochClaim) {
	s.mu.Lock()
	if s.role == RoleStopped {
		s.mu.Unlock()
		return
	}
	now := time.Now()
	// Leader stickiness: a claim triggered by lost heartbeats on one link
	// must not depose a live leader. A leader that can still reach a
	// majority rejects instead of stepping down; a backup that heard the
	// leader recently (within the failure window, minus slack for beats in
	// flight) rejects instead of granting. The claimant abandons without
	// adopting our epoch (see proto.EpochReject.LeaderAlive).
	if m.Epoch > s.epoch {
		if s.role == RoleLeader {
			live := 1 // self
			for _, t := range s.hbAcks {
				if now.Sub(t) <= s.cfg.FailureTimeout {
					live++
				}
			}
			if live >= s.majority() || !s.sawFirstAck() {
				reject := proto.EpochReject{Epoch: s.epoch, Claimant: s.cfg.ID, LeaderAlive: true}
				s.mu.Unlock()
				s.ep.Send(m.From, reject)
				return
			}
		}
		if s.role == RoleBackup {
			window := s.cfg.FailureTimeout - 2*s.cfg.HeartbeatInterval
			if window > 0 && !s.lastLeaderBeat.IsZero() && now.Sub(s.lastLeaderBeat) < window {
				reject := proto.EpochReject{Epoch: s.epoch, LeaderAlive: true}
				s.mu.Unlock()
				s.ep.Send(m.From, reject)
				return
			}
		}
	}
	// Grant each epoch at most once (ensuring a unique winner per epoch);
	// re-grant idempotently to the same claimant.
	switch {
	case m.Epoch > s.grantedEpoch:
		s.grantedEpoch = m.Epoch
		s.grantedTo = m.From
	case m.Epoch == s.grantedEpoch && m.From == s.grantedTo:
		// idempotent re-grant
	default:
		reject := proto.EpochReject{Epoch: s.grantedEpoch, Claimant: s.grantedTo}
		s.mu.Unlock()
		s.ep.Send(m.From, reject)
		return
	}
	s.c.epochGrants.Add(1)
	// A claim is also evidence the old leader died; observing a higher
	// epoch makes us step down if we were leader.
	if s.role == RoleLeader && m.Epoch > s.epoch {
		s.role = RoleBackup
		s.stopServingLocked()
	}
	s.lastLeaderHB = time.Now() // suppress our own candidacy for a beat
	grant := proto.EpochGrant{Epoch: m.Epoch, From: s.cfg.ID}
	s.mu.Unlock()
	s.ep.Send(m.From, grant)
}

func (s *Sequencer) onEpochGrant(m proto.EpochGrant) {
	s.mu.Lock()
	if s.role != RoleBackup || m.Epoch != s.initEpoch || s.initAcks == nil {
		s.mu.Unlock()
		return
	}
	s.initAcks[m.From] = true
	if len(s.initAcks) >= s.majority() {
		s.becomeLeaderLocked(m.Epoch)
	}
	s.mu.Unlock()
}

func (s *Sequencer) onEpochReject(m proto.EpochReject) {
	s.mu.Lock()
	if s.role != RoleBackup {
		s.mu.Unlock()
		return
	}
	if m.LeaderAlive {
		// Stickiness rejection: the leader is alive, our silence was lost
		// heartbeats. Abandon the claim WITHOUT adopting the epoch — our
		// epoch must stay low enough to accept the live leader's
		// heartbeats, or we would claim again forever (epoch inflation).
		s.initEpoch = 0
		s.initAcks = nil
		s.lastLeaderHB = time.Now()
		s.mu.Unlock()
		return
	}
	// We lost this epoch. Adopt the higher epoch knowledge and back off;
	// if the winner dies we will claim epoch+1 later.
	if m.Epoch > s.epoch {
		s.setEpochLocked(m.Epoch)
	}
	if m.Epoch >= s.initEpoch {
		s.initEpoch = 0
		s.initAcks = nil
		s.lastLeaderHB = time.Now()
	}
	s.mu.Unlock()
}

// becomeLeaderLocked transitions to leadership of the epoch after the
// majority granted it. The epoch is already replicated on a majority (the
// grants). Service starts only after every replica of the region
// acknowledges SeqInit (§5.2 "every new sequencer sends initialization
// requests to all replicas and waits to be acknowledged by all").
// Caller holds s.mu.
func (s *Sequencer) becomeLeaderLocked(epoch types.Epoch) {
	s.role = RoleLeader
	s.setEpochLocked(epoch)
	s.stopServingLocked() // not serving until SeqInit completes; counter restarts at 0 then
	s.c.elections.Add(1)
	s.initEpoch = epoch
	s.hbAcks = make(map[types.NodeID]time.Time)
	// Reset aggregation state: in-flight work from the old epoch is
	// re-driven by replica retries. Token dedup entries invalidate lazily
	// (they are stamped with their creation epoch), and pending-queue
	// members from the old term are dropped at the next flush the same
	// way. aggSeen deliberately survives: a child's resend after our
	// failover must still get its ORIGINAL assigned range back.
	s.inflight.Range(func(k, _ any) bool {
		s.inflight.Delete(k)
		return true
	})
	for _, q := range s.pendingQueues() {
		q.outstanding.Store(0)
	}

	replicas := s.topo.ReplicasInRegion(s.cfg.Region)
	s.initAcks = make(map[types.NodeID]bool, len(replicas))
	for _, r := range replicas {
		s.initAcks[r] = false
	}
	id := s.cfg.ID
	go func() {
		s.topo.SetLeader(s.cfg.Region, id)
		if len(replicas) == 0 {
			s.mu.Lock()
			if s.role == RoleLeader && s.epoch == epoch {
				s.beginServingLocked()
			}
			s.mu.Unlock()
			return
		}
		for _, r := range replicas {
			s.ep.Send(r, proto.SeqInit{Epoch: epoch, From: id})
		}
	}()
}

func (s *Sequencer) onSeqInitAck(m proto.SeqInitAck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role != RoleLeader || m.Epoch != s.epoch || s.serving {
		return
	}
	if _, expected := s.initAcks[m.From]; !expected {
		return
	}
	s.initAcks[m.From] = true
	for _, acked := range s.initAcks {
		if !acked {
			return
		}
	}
	s.beginServingLocked()
}

func (s *Sequencer) onHeartbeat(m proto.SeqHeartbeat) {
	s.mu.Lock()
	if s.role == RoleStopped {
		s.mu.Unlock()
		return
	}
	if m.Epoch > s.epoch {
		s.setEpochLocked(m.Epoch)
		if s.role == RoleLeader {
			// A higher-epoch leader exists: stand down.
			s.role = RoleBackup
			s.stopServingLocked()
		}
	}
	if m.Epoch >= s.epoch {
		now := time.Now()
		s.lastLeaderHB = now
		s.lastLeaderBeat = now
	}
	epoch := s.epoch
	id := s.cfg.ID
	s.mu.Unlock()
	s.ep.Send(m.From, proto.SeqHeartbeatAck{Epoch: epoch, From: id})
}

func (s *Sequencer) onHeartbeatAck(m proto.SeqHeartbeatAck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role != RoleLeader {
		return
	}
	if m.Epoch > s.epoch {
		// Backups know a newer epoch: a successor was elected. Stand down.
		s.setEpochLocked(m.Epoch)
		s.role = RoleBackup
		s.stopServingLocked()
		s.lastLeaderHB = time.Now()
		return
	}
	s.hbAcks[m.From] = time.Now()
}

// resendExpired re-sends aggregated batches that have waited longer than
// RetryTimeout (e.g. across a parent sequencer failover). Batch ids are
// deduplicated by the owner, so resending is safe.
func (s *Sequencer) resendExpired(now time.Time) {
	if s.cfg.RetryTimeout <= 0 {
		return
	}
	type out struct {
		req proto.AggOrderReqBatch
		to  types.NodeID
	}
	var outs []out
	se := s.servingEpoch()
	s.inflight.Range(func(k, v any) bool {
		id := k.(uint64)
		inf := v.(*inflight)
		if se != 0 && inf.epoch != se {
			// Flushed under a dead local term (raced the re-election's
			// inflight clear): discard, replicas re-drive the work.
			if _, loaded := s.inflight.LoadAndDelete(id); loaded {
				s.queueFor(inf.color).outstanding.Add(-1)
			}
			return true
		}
		sent := inf.sentAt.Load()
		if now.UnixNano()-sent < int64(s.cfg.RetryTimeout) {
			return true
		}
		// CAS the send stamp so concurrent ticks re-send at most once.
		if !inf.sentAt.CompareAndSwap(sent, now.UnixNano()) {
			return true
		}
		parent, ok := s.parentLeader()
		if !ok {
			return true
		}
		s.c.resends.Add(1)
		outs = append(outs, out{
			req: proto.AggOrderReqBatch{From: s.cfg.ID, Items: []proto.AggOrderItem{{Color: inf.color, BatchID: id, Total: inf.total}}},
			to:  parent,
		})
		return true
	})
	for _, o := range outs {
		s.ep.Send(o.to, o.req)
	}
}
