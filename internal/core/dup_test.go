package core

import (
	"context"
	"fmt"
	"testing"

	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// checkExactlyOnce asserts the color's committed log holds each expected
// payload exactly once and nothing else, with unique SNs.
func checkExactlyOnce(t *testing.T, c *Client, color types.ColorID, want map[string]bool) {
	t.Helper()
	recs, err := c.Subscribe(color, types.InvalidSN)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	sns := make(map[types.SN]bool)
	for _, r := range recs {
		counts[string(r.Data)]++
		if sns[r.SN] {
			t.Fatalf("SN %v assigned to two records", r.SN)
		}
		sns[r.SN] = true
	}
	for payload := range want {
		if counts[payload] != 1 {
			t.Errorf("payload %q appended %d times, want exactly 1", payload, counts[payload])
		}
	}
	if len(recs) != len(want) {
		t.Fatalf("log holds %d records, want %d", len(recs), len(want))
	}
}

// TestDuplicatedAppendReqNotDoubleAppended is the dup-delivery regression:
// with every message duplicated (DupProb=1) each AppendReq arrives at each
// replica at least twice, and the replica's token dedup must commit the
// records once. The duplicated acks must likewise leave the client's
// waiter state intact.
func TestDuplicatedAppendReqNotDoubleAppended(t *testing.T) {
	cl, c := newSimpleNoFailover(t, 1)
	net := cl.Network()
	net.SetFaultSeed(11)
	net.SetDefaultFaults(transport.FaultModel{DupProb: 1})

	const n = 25
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		payload := fmt.Sprintf("dup-%03d", i)
		if _, err := c.Append([][]byte{[]byte(payload)}, types.MasterColor); err != nil {
			t.Fatal(err)
		}
		want[payload] = true
	}
	if st := net.FaultStats(); st.Dups == 0 {
		t.Fatal("fault model injected no duplicates — test exercised nothing")
	}
	net.ClearFaults()
	checkExactlyOnce(t, c, types.MasterColor, want)
}

// TestDuplicatedAppendBatchReqNotDoubleAppended covers the batched append
// path: a duplicated batch AppendReq must not commit its record sets twice.
func TestDuplicatedAppendBatchReqNotDoubleAppended(t *testing.T) {
	cl, _ := newSimpleNoFailover(t, 1)
	net := cl.Network()
	net.SetFaultSeed(13)
	net.SetDefaultFaults(transport.FaultModel{DupProb: 1})

	c, err := cl.NewClient(WithBatching(DefaultBatchConfig()))
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	futs := make([]*AppendFuture, 0, n)
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		payload := fmt.Sprintf("bdup-%03d", i)
		futs = append(futs, c.AsyncAppend([][]byte{[]byte(payload)}, types.MasterColor))
		want[payload] = true
	}
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := net.FaultStats(); st.Dups == 0 {
		t.Fatal("fault model injected no duplicates — test exercised nothing")
	}
	net.ClearFaults()
	checkExactlyOnce(t, c, types.MasterColor, want)
}
