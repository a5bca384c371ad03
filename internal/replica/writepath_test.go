package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// TestDupTokenPersistedUncommittedAcked covers the duplicate-token ack
// path: a token already persisted on the replica (e.g. re-ingested by
// recovery, or a batch whose first OrderResp was lost) but not yet
// committed. The retrying client's AppendReq must register it in
// pending[token].clients so the eventual commit acks it — the batch is
// NOT re-persisted.
func TestDupTokenPersistedUncommittedAcked(t *testing.T) {
	h := newHarness(t, 1)
	r := h.replicas[0]
	token := types.MakeToken(7, 1)

	// Inject the persisted-uncommitted state directly into storage.
	if err := r.Store().PutBatch(0, token, [][]byte{[]byte("orphan")}); err != nil {
		t.Fatal(err)
	}

	// The client retries the append.
	h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{[]byte("orphan")}, Client: 500})

	// The replica re-drives the order request instead of re-persisting...
	oreq := h.expectOrderReq(t, token)
	if r.Stats().AppendDrops != 0 {
		t.Fatalf("dup append counted as drop")
	}
	// ...and the commit acks the retrying client.
	h.grant(oreq, types.MakeSN(1, 1))
	m := h.waitClient(t, func(m transport.Message) bool {
		ack, ok := m.(proto.AppendAck)
		return ok && ack.Token == token
	})
	if ack := m.(proto.AppendAck); ack.SN != types.MakeSN(1, 1) {
		t.Fatalf("ack SN = %v", ack.SN)
	}
}

// TestDupTokenCommitRaceStillAcked races a direct storage commit (the
// sync path runs on the serialized loop, concurrent with write-lane
// appends) against the retrying client's AppendReq. Whatever the
// interleaving, the client must receive an AppendAck: either the dup
// check sees the committed SN, the post-registration re-check catches a
// commit that landed in between (the fixed window — previously the entry
// was stranded until the retry timer), or the pending entry survives and
// the sequencer's cached grant acks it.
func TestDupTokenCommitRaceStillAcked(t *testing.T) {
	h := newHarness(t, 1)
	r := h.replicas[0]
	// Answer every order request like a real sequencer would answer a dup
	// token: re-grant the cached assignment.
	var grantMu sync.Mutex
	grants := make(map[types.Token]types.SN)
	go func() {
		for req := range h.seqCh {
			grantMu.Lock()
			sn := grants[req.Token]
			grantMu.Unlock()
			h.grant(req, sn)
		}
	}()

	for i := 1; i <= 60; i++ {
		token := types.MakeToken(8, uint32(i))
		snI := types.MakeSN(1, uint32(i))
		grantMu.Lock()
		grants[token] = snI
		grantMu.Unlock()
		rec := []byte(fmt.Sprintf("r%03d", i))
		if err := r.Store().PutBatch(0, token, [][]byte{rec}); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			r.Store().Commit(token, snI)
			close(done)
		}()
		h.cliEP.Send(1, proto.AppendReq{Color: 0, Token: token, Records: [][]byte{rec}, Client: 500})
		m := h.waitClient(t, func(m transport.Message) bool {
			ack, ok := m.(proto.AppendAck)
			return ok && ack.Token == token
		})
		if ack := m.(proto.AppendAck); ack.SN != snI {
			t.Fatalf("iter %d: ack SN = %v, want %v", i, ack.SN, snI)
		}
		<-done
	}
}

// TestWriteLanePreservesPerColorFIFO sends interleaved appends and
// commits for many colors through a replica with a small write-lane pool
// and verifies every append commits with its own SN — same-color
// messages must not be reordered (an OrderResp overtaking its AppendReq
// would be buffered as "early" and still commit, so the stronger signal
// is that ALL tokens commit and no replica state wedges).
func TestWriteLanePreservesPerColorFIFO(t *testing.T) {
	h := newHarness(t, 1)
	r := h.replicas[0]
	if r.cfg.WriteWorkers <= 0 {
		t.Fatal("harness replica has no write lane")
	}
	const colors = 8
	const perColor = 40
	next := make(map[types.ColorID]uint32)
	for i := 1; i <= perColor; i++ {
		for c := 1; c <= colors; c++ {
			color := types.ColorID(c)
			token := types.MakeToken(uint32(100+c), uint32(i))
			h.cliEP.Send(1, proto.AppendReq{Color: color, Token: token, Records: [][]byte{[]byte("x")}, Client: 500})
			next[color]++
			// Grant immediately: the OrderResp chases the AppendReq onto
			// the same color worker.
			h.seqEP.Send(1, grantMsg(color, token, types.MakeSN(1, next[color])))
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r.Stats().Commits >= colors*perColor {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commits = %d, want %d", r.Stats().Commits, colors*perColor)
		}
		time.Sleep(time.Millisecond)
	}
	for c := 1; c <= colors; c++ {
		color := types.ColorID(c)
		if max := r.Store().MaxSN(color); max != types.MakeSN(1, perColor) {
			t.Fatalf("color %d maxSN = %v", c, max)
		}
	}
}
