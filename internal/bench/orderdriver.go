package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/seq"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// orderDriver stands in for a storage replica in ordering-layer-only
// experiments (§9.1: "we isolate the ordering layer overheads by executing
// the workloads without writing any data to the underlying storage
// layer"): it issues order requests and receives the order responses.
type orderDriver struct {
	id  types.NodeID
	fid uint32
	ep  transport.Endpoint
	ctr atomic.Uint32

	mu    sync.Mutex
	waits map[types.Token]chan types.SN
}

func newOrderDriver(net *transport.Network, id types.NodeID) (*orderDriver, error) {
	d := &orderDriver{id: id, fid: uint32(id), waits: make(map[types.Token]chan types.SN)}
	ep, err := net.Register(id, func(from types.NodeID, msg transport.Message) {
		m, ok := msg.(proto.OrderRespBatch)
		if !ok {
			return
		}
		for _, resp := range m.Items {
			d.mu.Lock()
			ch := d.waits[resp.Token]
			delete(d.waits, resp.Token)
			d.mu.Unlock()
			if ch != nil {
				ch <- resp.LastSN
			}
		}
	})
	if err != nil {
		return nil, err
	}
	d.ep = ep
	return d, nil
}

// request asks the target sequencer for n SNs in color and waits for the
// response, returning the round-trip latency.
func (d *orderDriver) request(target types.NodeID, color types.ColorID, n uint32, timeout time.Duration) (time.Duration, error) {
	token := types.MakeToken(d.fid, d.ctr.Add(1))
	ch := make(chan types.SN, 1)
	d.mu.Lock()
	d.waits[token] = ch
	d.mu.Unlock()
	req := proto.OrderReqBatch{Color: color, Replicas: []types.NodeID{d.id}, Items: []proto.OrderReq{{Token: token, NRecords: n}}}
	start := time.Now()
	if err := d.ep.Send(target, req); err != nil {
		return 0, err
	}
	select {
	case <-ch:
		return time.Since(start), nil
	case <-time.After(timeout):
		d.mu.Lock()
		delete(d.waits, token)
		d.mu.Unlock()
		return 0, fmt.Errorf("order request timed out after %v", timeout)
	}
}

// seqTreeConfig builds seq.Config values with bench-appropriate timings.
func benchSeqConfig(id types.NodeID, region types.ColorID, topo *topology.Topology, batch time.Duration) seq.Config {
	cfg := seq.DefaultConfig()
	cfg.ID = id
	cfg.Region = region
	cfg.Topo = topo
	cfg.BatchInterval = batch
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.FailureTimeout = time.Second
	cfg.RetryTimeout = 2 * time.Second
	cfg.StartAsLeader = true
	return cfg
}

// buildSeqTree constructs the paper's 3-sequencer chain (root–middle–leaf,
// §9.1) and returns (leafID, leafColor, stop). Drivers send master-color
// requests to the leaf for total ordering, or leaf-color requests for
// FlexLog-P partial ordering.
func buildSeqTree(net *transport.Network, batch time.Duration) (leafID types.NodeID, leafColor types.ColorID, stop func(), err error) {
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 9000, nil); err != nil {
		return 0, 0, nil, err
	}
	if err := topo.AddRegion(1, 0, 9010, nil); err != nil {
		return 0, 0, nil, err
	}
	if err := topo.AddRegion(2, 1, 9020, nil); err != nil {
		return 0, 0, nil, err
	}
	var seqs []*seq.Sequencer
	for _, sc := range []struct {
		id     types.NodeID
		region types.ColorID
	}{{9000, 0}, {9010, 1}, {9020, 2}} {
		s, err := seq.New(benchSeqConfig(sc.id, sc.region, topo, batch), net)
		if err != nil {
			return 0, 0, nil, err
		}
		seqs = append(seqs, s)
	}
	stop = func() {
		for _, s := range seqs {
			s.Stop()
		}
	}
	return 9020, 2, stop, nil
}

// buildSeqStar constructs a root with `leaves` leaf sequencers (the Fig. 9
// scalability topology) and returns the leaf ids.
func buildSeqStar(net *transport.Network, leaves int, batch time.Duration) (leafIDs []types.NodeID, stop func(), err error) {
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 9000, nil); err != nil {
		return nil, nil, err
	}
	var seqs []*seq.Sequencer
	root, err := seq.New(benchSeqConfig(9000, 0, topo, batch), net)
	if err != nil {
		return nil, nil, err
	}
	seqs = append(seqs, root)
	for i := 1; i <= leaves; i++ {
		color := types.ColorID(i)
		id := types.NodeID(9000 + 10*i)
		if err := topo.AddRegion(color, 0, id, nil); err != nil {
			return nil, nil, err
		}
		s, err := seq.New(benchSeqConfig(id, color, topo, batch), net)
		if err != nil {
			return nil, nil, err
		}
		seqs = append(seqs, s)
		leafIDs = append(leafIDs, id)
	}
	stop = func() {
		for _, s := range seqs {
			s.Stop()
		}
	}
	return leafIDs, stop, nil
}
