package replica

import (
	"bytes"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// newCatchupPair builds two replicas of separate shards over a topology
// with the given number of colors, with segments large enough to hold a
// batch bigger than the catch-up budget. Their stores are filled directly.
func newCatchupPair(t *testing.T, colors int) (donor, dst *Replica) {
	t.Helper()
	net := transport.NewNetwork(transport.ZeroLink())
	topo := topology.New()
	for c := 0; c < colors; c++ {
		if err := topo.AddRegion(types.ColorID(c), 0, 900, nil); err != nil {
			t.Fatal(err)
		}
	}
	var reps []*Replica
	for id := types.NodeID(1); id <= 2; id++ {
		if err := topo.AddShard(types.ShardID(id), 0, []types.NodeID{id}); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.ID = id
		cfg.Shard = types.ShardID(id)
		cfg.Topo = topo
		cfg.Store.SegmentSize = 4 * catchupBudget
		cfg.Store.NumSegments = 4
		r, err := New(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		reps = append(reps, r)
	}
	return reps[0], reps[1]
}

// commitBatch persists and commits one append batch whose records end at
// SN (1, last).
func commitBatch(t *testing.T, r *Replica, c types.ColorID, tok uint32, last uint32, recs ...[]byte) {
	t.Helper()
	token := types.MakeToken(7, tok)
	if err := r.st.PutBatch(c, token, recs); err != nil {
		t.Fatal(err)
	}
	if err := r.st.Commit(token, types.MakeSN(1, last)); err != nil {
		t.Fatal(err)
	}
}

func replyBytes(m proto.CatchupEntries) (n, records int) {
	for _, recs := range m.Records {
		for _, rec := range recs {
			n += len(rec.Data)
			records++
		}
	}
	return n, records
}

// TestServeCatchupBudgetAcrossColors drains a three-color log one round at
// a time: every reply stays within the byte budget, More is set on every
// round but the last, and the rounds together carry the whole log.
func TestServeCatchupBudgetAcrossColors(t *testing.T) {
	donor, _ := newCatchupPair(t, 3)
	const perColor, size = 12, 100 << 10 // 1.2 MiB per color
	for c := types.ColorID(0); c < 3; c++ {
		for i := uint32(1); i <= perColor; i++ {
			commitBatch(t, donor, c, uint32(c)*100+i, i, bytes.Repeat([]byte{byte(c), byte(i)}, size/2))
		}
	}
	have := make(map[types.ColorID]types.SN)
	total, rounds := 0, 0
	for more := true; more; rounds++ {
		if rounds > 20 {
			t.Fatal("catch-up does not converge")
		}
		m, err := donor.serveCatchup(1, have)
		if err != nil {
			t.Fatal(err)
		}
		n, recs := replyBytes(m)
		if n > catchupBudget {
			t.Fatalf("round %d carries %d bytes, budget %d", rounds, n, catchupBudget)
		}
		if recs == 0 {
			t.Fatalf("round %d carries no record", rounds)
		}
		for c, rs := range m.Records {
			for _, rec := range rs {
				if rec.SN <= have[c] {
					t.Fatalf("round %d resends color %v SN %v at or below cursor %v", rounds, c, rec.SN, have[c])
				}
			}
			have[c] = rs[len(rs)-1].SN
		}
		for c := types.ColorID(0); c < 3; c++ {
			if m.Frontier[c] != types.MakeSN(1, perColor) {
				t.Fatalf("frontier of color %v = %v", c, m.Frontier[c])
			}
		}
		total += recs
		more = m.More
	}
	if total != 3*perColor {
		t.Fatalf("rounds carried %d records, want %d", total, 3*perColor)
	}
	if rounds < 4 {
		t.Fatalf("%d rounds for 3.6 MiB at a 1 MiB budget", rounds)
	}
}

// TestServeCatchupOversizedRecordAlone checks that a record larger than
// the budget still moves: it travels alone, with More set for what
// follows it, and is never packed behind records of another color.
func TestServeCatchupOversizedRecordAlone(t *testing.T) {
	donor, _ := newCatchupPair(t, 2)
	big := bytes.Repeat([]byte{'B'}, catchupBudget+1)
	commitBatch(t, donor, 0, 1, 1, big)
	commitBatch(t, donor, 0, 2, 2, []byte("after"))

	m, err := donor.serveCatchup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs := m.Records[0]; len(m.Records) != 1 || len(recs) != 1 || !bytes.Equal(recs[0].Data, big) {
		t.Fatalf("first round = %d colors, want the oversized record alone", len(m.Records))
	}
	if !m.More {
		t.Fatal("More unset after the oversized record")
	}

	// Behind a record of another color the oversized one waits for a
	// round of its own rather than pushing the reply past the budget.
	donor, _ = newCatchupPair(t, 2)
	commitBatch(t, donor, 0, 1, 1, []byte("small"))
	commitBatch(t, donor, 1, 2, 1, big)
	m, err = donor.serveCatchup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 1 || len(m.Records[0]) != 1 || !m.More {
		t.Fatalf("first round = %v (More %v), want the small record alone with More", m.Records, m.More)
	}
	m, err = donor.serveCatchup(1, map[types.ColorID]types.SN{0: types.MakeSN(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if recs := m.Records[1]; len(m.Records) != 1 || len(recs) != 1 || !bytes.Equal(recs[0].Data, big) || m.More {
		t.Fatalf("second round = %d colors (More %v), want the oversized record alone and done", len(m.Records), m.More)
	}
}

// TestServeCatchupNoStarvationUnderLiveTraffic keeps one color growing by
// a record per round, as a joiner polling a busy donor sees it, while a
// batch of exactly the budget waits in another color. That batch never
// fits behind a live record, so it must still get a round of its own.
func TestServeCatchupNoStarvationUnderLiveTraffic(t *testing.T) {
	donor, _ := newCatchupPair(t, 2)
	commitBatch(t, donor, 1, 1000, 1, bytes.Repeat([]byte{'B'}, catchupBudget))
	have := map[types.ColorID]types.SN{1: 0}
	for round := uint32(1); round <= 32; round++ {
		commitBatch(t, donor, 0, round, round, []byte("live"))
		m, err := donor.serveCatchup(1, have)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Records[1]) > 0 {
			return
		}
		for c, rs := range m.Records {
			have[c] = rs[len(rs)-1].SN
		}
	}
	t.Fatal("the budget-sized batch starved behind live traffic for 32 rounds")
}

// TestCatchupFromCopiesWholeBatches runs the in-process (shard-merge) pull
// to completion and checks the destination holds every record of the
// donor, multi-record batches included, at the donor's SNs.
func TestCatchupFromCopiesWholeBatches(t *testing.T) {
	donor, dst := newCatchupPair(t, 2)
	last := map[types.ColorID]uint32{}
	for i := uint32(1); i <= 40; i++ {
		c := types.ColorID(i % 2)
		recs := make([][]byte, 1+i%3)
		for k := range recs {
			recs[k] = bytes.Repeat([]byte{byte(i), byte(k)}, 40<<10)
		}
		last[c] += uint32(len(recs))
		commitBatch(t, donor, c, i, last[c], recs...)
	}
	before := dst.Stats().CatchupRounds
	cursor := make(map[types.ColorID]types.SN)
	for more := true; more; {
		var err error
		if more, err = dst.CatchupFrom(donor, cursor); err != nil {
			t.Fatal(err)
		}
	}
	if rounds := dst.Stats().CatchupRounds - before; rounds < 2 {
		t.Fatalf("copied in %d rounds, want several", rounds)
	}
	for c := types.ColorID(0); c < 2; c++ {
		want, err := donor.st.ScanFrom(c, types.InvalidSN, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.st.ScanFrom(c, types.InvalidSN, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("color %v: dst holds %d records, donor %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i].SN != want[i].SN || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("color %v record %d differs", c, i)
			}
		}
	}
}

// TestSyncAbortClockCountsCatchupProgress checks that a sync run is
// aborted only after syncAbortRetries retry timeouts without progress,
// and that an ingested catch-up round counts as progress: a run that
// started long ago but keeps pulling records is not abandoned. The abort
// clock is driven by hand; ModeJoining keeps the replica's own timer away
// from sync runs.
func TestSyncAbortClockCountsCatchupProgress(t *testing.T) {
	h := newHarness(t, 3)
	r := h.replicas[0]
	retry := r.cfg.RetryTimeout
	const id = 77 << 32
	r.mode.store(ModeJoining)
	r.mu.Lock()
	r.syncRuns[id] = &syncRun{
		id:           id,
		coordinator:  2,
		dones:        make(map[types.NodeID]bool),
		participants: []types.NodeID{1, 2, 3},
		progress:     time.Now().Add(-time.Hour),
		lastDrive:    time.Now(),
	}
	r.pulls[id] = &pull{donor: 2, lastDrive: time.Now()}
	r.mu.Unlock()

	r.handle(2, proto.CatchupEntries{
		ID:      id,
		Records: map[types.ColorID][]proto.WireRecord{0: {{Token: types.MakeToken(9, 1), SN: types.MakeSN(1, 1), Data: []byte("x")}}},
		From:    2,
	})
	r.retrySyncRuns(time.Now())
	r.mu.Lock()
	alive := r.syncRuns[id] != nil
	r.mu.Unlock()
	if !alive || r.Stats().SyncAborts != 0 {
		t.Fatalf("run with fresh catch-up progress aborted (alive %v, aborts %d)", alive, r.Stats().SyncAborts)
	}
	// With no further progress the run is abandoned after the full window.
	r.retrySyncRuns(time.Now().Add((syncAbortRetries + 1) * retry))
	if got := r.Stats().SyncAborts; got != 1 {
		t.Fatalf("run without progress: %d aborts, want 1", got)
	}
}
