package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"flexlog/internal/types"
)

// payload returns the record the benchmark writes as the index-th record of
// a run seeded with seed. The first 16 bytes hold seed and index; the rest
// is a pattern derived from both, so a read can be checked byte for byte
// without keeping what was written.
func payload(seed int64, index uint64, size int) []byte {
	if size < 16 {
		size = 16
	}
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], index)
	h := mix64(uint64(seed) ^ (index * 0x9e3779b97f4a7c15))
	for i := 16; i < size; i += 8 {
		h = mix64(h)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], h)
		copy(b[i:], w[:])
	}
	return b
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// verifyPayload reports whether got is exactly the record payload(seed,
// index, size) would produce.
func verifyPayload(got []byte, seed int64, index uint64, size int) bool {
	return bytes.Equal(got, payload(seed, index, size))
}

// selfCheck decodes the seed and index a record carries and checks the
// rest of it against them; used where the reader does not know which
// record it is looking at (a subscribe of the whole log).
func selfCheck(got []byte, seed int64) (index uint64, ok bool) {
	if len(got) < 16 || int64(binary.LittleEndian.Uint64(got)) != seed {
		return 0, false
	}
	index = binary.LittleEndian.Uint64(got[8:])
	return index, verifyPayload(got, seed, index, len(got))
}

// ack is one acknowledged append: which record, where the log put it, and
// the real-time interval over which the call was outstanding.
type ack struct {
	color  types.ColorID
	sn     types.SN
	index  uint64
	issued time.Time
	done   time.Time
}

// checker accumulates acknowledged appends and read failures and finds the
// violations at the end of a run. Safe for concurrent use.
type checker struct {
	mu     sync.Mutex
	acks   []ack
	faults []string
}

func (c *checker) ack(a ack) {
	c.mu.Lock()
	c.acks = append(c.acks, a)
	c.mu.Unlock()
}

// fault records one failed or wrong-result operation.
func (c *checker) fault(format string, args ...any) {
	c.mu.Lock()
	c.faults = append(c.faults, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// acked returns a copy of the acknowledged appends of one color, in SN
// order.
func (c *checker) acked(color types.ColorID) []ack {
	c.mu.Lock()
	var out []ack
	for _, a := range c.acks {
		if a.color == color {
			out = append(out, a)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].sn < out[j].sn })
	return out
}

// verifyOrder checks every color's acknowledged SNs: each SN is valid and
// used once, and an append issued after another was acknowledged got a
// larger SN (for one closed-loop caller: SNs increase). Each violation is
// recorded as a fault; the number found is returned.
func (c *checker) verifyOrder() int {
	c.mu.Lock()
	byColor := make(map[types.ColorID][]ack)
	for _, a := range c.acks {
		byColor[a.color] = append(byColor[a.color], a)
	}
	c.mu.Unlock()
	bad := 0
	for color, as := range byColor {
		bySN := append([]ack(nil), as...)
		sort.Slice(bySN, func(i, j int) bool { return bySN[i].sn < bySN[j].sn })
		for i, a := range bySN {
			if !a.sn.Valid() {
				c.fault("%v: record %d acknowledged with an invalid SN", color, a.index)
				bad++
			} else if i > 0 && bySN[i-1].sn == a.sn {
				c.fault("%v: SN %d acknowledged for records %d and %d", color, a.sn, bySN[i-1].index, a.index)
				bad++
			}
		}
		// Sweep appends in issue order while folding in every append that
		// completed before the current one was issued.
		byIssue := append([]ack(nil), as...)
		sort.Slice(byIssue, func(i, j int) bool { return byIssue[i].issued.Before(byIssue[j].issued) })
		byDone := append([]ack(nil), as...)
		sort.Slice(byDone, func(i, j int) bool { return byDone[i].done.Before(byDone[j].done) })
		var maxDone types.SN
		var maxIdx uint64
		j := 0
		for _, a := range byIssue {
			for j < len(byDone) && byDone[j].done.Before(a.issued) {
				if byDone[j].sn > maxDone {
					maxDone, maxIdx = byDone[j].sn, byDone[j].index
				}
				j++
			}
			if maxDone.Valid() && a.sn <= maxDone {
				c.fault("%v: record %d got SN %d, not above SN %d of record %d acknowledged before it was issued",
					color, a.index, a.sn, maxDone, maxIdx)
				bad++
			}
		}
	}
	return bad
}

// verifySubscribe checks a subscribe of one color against the appends
// acknowledged on it: the stream is in strictly increasing SN order, every
// record in it is intact, and every acknowledged record appears at its SN
// with its payload. It returns the number of faults recorded.
func (c *checker) verifySubscribe(color types.ColorID, seed int64, recs []types.Record) int {
	bad := 0
	at := make(map[types.SN]uint64, len(recs))
	for i, r := range recs {
		if i > 0 && r.SN <= recs[i-1].SN {
			c.fault("%v: subscribe out of order at SN %d after %d", color, r.SN, recs[i-1].SN)
			bad++
		}
		idx, ok := selfCheck(r.Data, seed)
		if !ok {
			c.fault("%v: subscribe returned a corrupted record at SN %d", color, r.SN)
			bad++
			continue
		}
		at[r.SN] = idx
	}
	for _, a := range c.acked(color) {
		idx, ok := at[a.sn]
		switch {
		case !ok:
			c.fault("%v: acknowledged record %d (SN %d) missing from subscribe", color, a.index, a.sn)
			bad++
		case idx != a.index:
			c.fault("%v: SN %d holds record %d, acknowledged for record %d", color, a.sn, idx, a.index)
			bad++
		}
	}
	return bad
}

// faultCount returns the number of faults recorded so far.
func (c *checker) faultCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.faults)
}

// firstFaults returns up to n recorded faults for the report.
func (c *checker) firstFaults(n int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.faults) < n {
		n = len(c.faults)
	}
	return append([]string(nil), c.faults[:n]...)
}
