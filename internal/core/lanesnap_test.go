package core

import (
	"fmt"
	"testing"

	"flexlog/internal/obs"
	"flexlog/internal/types"
)

// checkLaneSnapshots asserts the /debug/lanes rows of replicas ids, which
// each run both lanes: a read row then a write row per node, in the given
// order. Every replica stores every append, so each write lane took at
// least appends messages; reads go to one replica, so the read lanes took
// at least reads messages in total.
func checkLaneSnapshots(t *testing.T, snaps []obs.LaneSnapshot, ids []types.NodeID, appends, reads uint64) {
	t.Helper()
	if len(snaps) != 2*len(ids) {
		t.Fatalf("got %d lane rows, want %d: %+v", len(snaps), 2*len(ids), snaps)
	}
	var readEnq uint64
	for i, s := range snaps {
		node, lane := fmt.Sprintf("%d", ids[i/2]), [2]string{"read", "write"}[i%2]
		if s.Node != node || s.Lane != lane {
			t.Fatalf("row %d is %s/%s, want %s/%s", i, s.Node, s.Lane, node, lane)
		}
		if s.Dequeued > s.Enqueued || s.MaxDepth == 0 && s.Enqueued > 0 || s.Shed != 0 {
			t.Fatalf("row %d counters are inconsistent: %+v", i, s)
		}
		if lane == "read" {
			readEnq += s.Enqueued
		} else if s.Enqueued < appends {
			t.Fatalf("node %s write lane took %d messages, want >= %d", node, s.Enqueued, appends)
		}
	}
	if readEnq < reads {
		t.Fatalf("read lanes took %d messages, want >= %d", readEnq, reads)
	}
}

// TestClusterLaneSnapshots pins the /debug/lanes rows of an in-process
// cluster: each replica reports its own read and write lane.
func TestClusterLaneSnapshots(t *testing.T) {
	cl, err := SimpleCluster(TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	var sn types.SN
	for i := 0; i < 5; i++ {
		if sn, err = c.Append([][]byte{[]byte("lane")}, types.MasterColor); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read(sn, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	ids := cl.Topology().ShardsInRegion(types.MasterColor)[0].Replicas
	checkLaneSnapshots(t, cl.LaneSnapshots(), ids, 5, 1)
}
