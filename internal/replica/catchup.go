package replica

import (
	"errors"
	"fmt"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/storage"
	"flexlog/internal/types"
)

// This file implements the catch-up pull, the one state-transfer path
// between replicas (DESIGN.md §15.3), driven by the §6.3 sync-phase, by
// replica join and, in process, by shard merge (CatchupFrom). The donor
// keeps no state, so a lost round or a donor crash costs one retry
// (retryPulls), never a wedged transfer.

// catchupBudget caps the record bytes of one round, far below
// proto.MaxFrame, so a replica can catch up on a log of any size. Only an
// append batch larger than the budget travels alone in a bigger reply.
const catchupBudget = 1 << 20

// pull is one catch-up transfer this replica drives, keyed in
// Replica.pulls by the sync run's id or by Replica.joinID.
type pull struct {
	donor     types.NodeID
	lastDrive time.Time
}

// catchupCursor is the per-color position a pull resumes from,
// max(MaxSN, Trimmed): records at or below the trim frontier would be
// discarded, so every round either advances the cursor or ends the pull.
func (r *Replica) catchupCursor() map[types.ColorID]types.SN {
	out := make(map[types.ColorID]types.SN)
	for _, c := range r.topo.Colors() {
		sn := max(r.st.MaxSN(c), r.st.Trimmed(c))
		if sn.Valid() {
			out[c] = sn
		}
	}
	return out
}

// sendCatchupFetch issues the next round of pull id.
func (r *Replica) sendCatchupFetch(id uint64) {
	r.mu.Lock()
	p := r.pulls[id]
	if p == nil {
		r.mu.Unlock()
		return
	}
	p.lastDrive = time.Now()
	donor := p.donor
	r.mu.Unlock()
	r.ep.Send(donor, proto.CatchupFetch{ID: id, Have: r.catchupCursor(), From: r.cfg.ID})
}

// retryPulls re-sends every round that got no answer within RetryTimeout;
// for a caught-up joiner this is also its polling of live traffic.
func (r *Replica) retryPulls(now time.Time) {
	retry := r.cfg.RetryTimeout
	if retry <= 0 {
		return
	}
	var stale []uint64
	r.mu.Lock()
	for id, p := range r.pulls {
		if now.Sub(p.lastDrive) >= retry {
			stale = append(stale, id)
		}
	}
	r.mu.Unlock()
	for _, id := range stale {
		r.sendCatchupFetch(id)
	}
}

// serveCatchup is the donor side of every round: the committed records
// above have, cut at catchupBudget bytes but never empty while any is
// missing, with More set when the budget left records behind, plus this
// replica's committed frontier. A storage error skips that color and is
// returned alongside the reply.
func (r *Replica) serveCatchup(id uint64, have map[types.ColorID]types.SN) (proto.CatchupEntries, error) {
	out := proto.CatchupEntries{
		ID:       id,
		Records:  make(map[types.ColorID][]proto.WireRecord),
		Frontier: make(map[types.ColorID]types.SN),
		From:     r.cfg.ID,
	}
	var errs []error
	left := catchupBudget
	// Start the color walk at a point that moves with the cursor, so live
	// traffic on one color cannot starve a large batch waiting in another.
	var spin uint64
	for _, sn := range have {
		spin += uint64(sn) * 0x9e3779b97f4a7c15
	}
	colors := r.topo.Colors()
	for k := range colors {
		c := colors[(int(spin>>33)+k)%len(colors)]
		frontier := r.st.MaxSN(c)
		if !frontier.Valid() {
			continue
		}
		out.Frontier[c] = frontier
		if frontier <= have[c] {
			continue
		}
		if left <= 0 {
			out.More = true
			continue
		}
		recs, err := r.st.ScanFrom(c, have[c], left)
		if err != nil {
			errs = append(errs, fmt.Errorf("replica: catch-up scan of color %d: %w", c, err))
		}
		if len(recs) == 0 {
			continue
		}
		size := 0
		for _, rec := range recs {
			size += len(rec.Data)
		}
		if size > left && len(out.Records) > 0 {
			out.More, left = true, 0 // an oversized batch gets a round of its own
			continue
		}
		left -= size
		wire := make([]proto.WireRecord, len(recs))
		for i, rec := range recs {
			wire[i] = proto.WireRecord{Token: rec.Token, SN: rec.SN, Data: rec.Data}
		}
		out.Records[c] = wire
		if recs[len(recs)-1].SN < frontier {
			out.More = true
		}
	}
	return out, errors.Join(errs...)
}

// onCatchupFetch answers one round over the network; a storage error only
// drops the affected color, as a round cannot carry an error.
func (r *Replica) onCatchupFetch(from types.NodeID, m proto.CatchupFetch) {
	out, _ := r.serveCatchup(m.ID, m.Have)
	r.ep.Send(from, out)
}

// onCatchupEntries ingests one round of a pull this replica drives. More
// chains the next round at once; otherwise a sync-phase pull is done and
// joins the SyncDone barrier, while a join pull keeps polling.
func (r *Replica) onCatchupEntries(m proto.CatchupEntries) {
	r.mu.Lock()
	p := r.pulls[m.ID]
	if p == nil {
		r.mu.Unlock()
		return
	}
	p.lastDrive = time.Now()
	join := m.ID == r.joinID // a join pull keeps polling to track live traffic
	r.mu.Unlock()

	ingested := r.ingestCatchup(m.Records)

	r.mu.Lock()
	run := r.syncRuns[m.ID]
	if run != nil && ingested > 0 {
		run.progress = time.Now() // a long catch-up is not a wedged run
	}
	done := !m.More && !join && r.pulls[m.ID] != nil
	if done {
		delete(r.pulls, m.ID)
		if run != nil {
			run.caughtUp = true
		}
	}
	r.mu.Unlock()

	if join {
		var lag uint64
		for c, sn := range m.Frontier {
			if mine := r.st.MaxSN(c); mine < sn {
				lag += uint64(sn - mine)
			}
		}
		r.joinLag.Store(lag)
	}
	switch {
	case m.More:
		r.sendCatchupFetch(m.ID)
	case done:
		r.broadcastSyncDone(m.ID)
	}
}

// ingestCatchup installs already-ordered records at their authoritative
// SNs and returns how many it installed. An append batch's records share
// its token and hold consecutive SNs, so they are persisted together and
// committed at the last SN. A token already present is only committed;
// batches at or below the trim frontier are skipped.
func (r *Replica) ingestCatchup(records map[types.ColorID][]proto.WireRecord) int {
	n := 0
	for color, recs := range records {
		frontier := r.st.Trimmed(color)
		for i := 0; i < len(recs); {
			j := i + 1
			for j < len(recs) && recs[j].Token == recs[i].Token {
				j++
			}
			batch := recs[i:j]
			i = j
			tok, last := batch[0].Token, batch[len(batch)-1].SN
			if last <= frontier {
				continue
			}
			if !r.st.Has(tok) {
				data := make([][]byte, len(batch))
				for k, rec := range batch {
					data[k] = rec.Data
				}
				if err := r.st.PutBatch(color, tok, data); err != nil {
					continue
				}
			}
			if err := r.st.Commit(tok, last); err != nil && !errors.Is(err, storage.ErrUnknownToken) {
				continue
			}
			r.maxSeen.bump(color, last)
			n += len(batch)
		}
	}
	if len(records) > 0 { // a caught-up joiner's empty polls are not rounds
		r.stats.catchupRounds.Add(1)
	}
	r.stats.catchupRecords.Add(uint64(n))
	return n
}

// CatchupFrom runs one catch-up round against donor in process, the
// shard-merge form of the pull. cursor holds, per color, the highest SN
// already copied (the destination's own SNs of the color interleave with
// the donor's, so its MaxSN cannot serve); the round advances it. It
// reports whether the donor has more, so the caller loops until false.
func (r *Replica) CatchupFrom(donor *Replica, cursor map[types.ColorID]types.SN) (bool, error) {
	m, err := donor.serveCatchup(0, cursor)
	if err != nil {
		return false, err
	}
	r.ingestCatchup(m.Records)
	for c, recs := range m.Records {
		cursor[c] = max(cursor[c], recs[len(recs)-1].SN)
	}
	return m.More, nil
}
