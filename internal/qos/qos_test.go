package qos

import (
	"reflect"
	"testing"
	"time"

	"flexlog/internal/types"
)

var t0 = time.Unix(1000, 0)

// TestTokenBucketBurstThenRefill drains a full bucket, checks the refused
// request leaves the bucket untouched, then refills it with time.
func TestTokenBucketBurstThenRefill(t *testing.T) {
	b := NewTokenBucket(100, 10) // 100 tokens/s, depth 10
	for i := 0; i < 10; i++ {
		if ok, _ := b.Take(1, t0); !ok {
			t.Fatalf("take %d of the burst refused", i)
		}
	}
	if ok, _ := b.Take(1, t0); ok {
		t.Fatal("take beyond the burst admitted")
	}
	// 50 ms at 100/s refills 5 tokens.
	now := t0.Add(50 * time.Millisecond)
	if ok, _ := b.Take(5, now); !ok {
		t.Fatal("refilled tokens refused")
	}
	if ok, _ := b.Take(1, now); ok {
		t.Fatal("take beyond the refill admitted")
	}
	// A long idle period refills only up to the burst.
	now = now.Add(time.Hour)
	if ok, _ := b.Take(10, now); !ok {
		t.Fatal("full bucket refused its burst")
	}
	if ok, _ := b.Take(1, now); ok {
		t.Fatal("idle refill exceeded the burst")
	}
}

// TestTokenBucketRetryAfter checks the hint is the time until the missing
// tokens refill, is capped at one full bucket for oversized requests, and
// is honored: retrying after it succeeds.
func TestTokenBucketRetryAfter(t *testing.T) {
	b := NewTokenBucket(1000, 4)
	if ok, _ := b.Take(4, t0); !ok {
		t.Fatal("burst refused")
	}
	ok, wait := b.Take(2, t0)
	if ok || wait != 2*time.Millisecond {
		t.Fatalf("Take(2) on empty = %v, %v; want refused with 2ms", ok, wait)
	}
	if ok, _ := b.Take(2, t0.Add(wait)); !ok {
		t.Fatal("retry after the hint refused")
	}
	// More than the bucket can ever hold: the hint is one full refill.
	if ok, wait := b.Take(100, t0.Add(wait)); ok || wait != 4*time.Millisecond {
		t.Fatalf("oversized Take = %v, %v; want refused with 4ms", ok, wait)
	}
	// The hint is never zero, even for a sub-microsecond shortfall.
	fast := NewTokenBucket(1e12, 1)
	fast.Take(1, t0)
	if ok, wait := fast.Take(1, t0); ok || wait <= 0 {
		t.Fatalf("tiny shortfall = %v, %v; want a positive hint", ok, wait)
	}
}

// TestTokenBucketMinimumBurst checks a burst below one record is raised
// to one, so a bucket can always admit a single record.
func TestTokenBucketMinimumBurst(t *testing.T) {
	b := NewTokenBucket(10, 0)
	if ok, _ := b.Take(1, t0); !ok {
		t.Fatal("single record refused by a zero-burst bucket")
	}
}

// TestAdmissionPerTenant checks each rated tenant has its own bucket, a
// tenant without a rate (and the default tenant) is never throttled, and
// an unset burst defaults to one second of rate.
func TestAdmissionPerTenant(t *testing.T) {
	a := NewAdmission([]TenantConfig{
		{ID: 1, Rate: 10, Burst: 2},
		{ID: 2, Rate: 5}, // burst defaults to 5
		{ID: 3},          // no rate: unlimited
	})
	if a == nil {
		t.Fatal("admission with rated tenants is nil")
	}
	if ok, _ := a.Admit(1, 2, t0); !ok {
		t.Fatal("tenant 1 burst refused")
	}
	ok, wait := a.Admit(1, 1, t0)
	if ok || wait != 100*time.Millisecond {
		t.Fatalf("tenant 1 over burst = %v, %v; want refused with 100ms", ok, wait)
	}
	// Tenant 1 being throttled does not touch tenant 2's bucket.
	if ok, _ := a.Admit(2, 5, t0); !ok {
		t.Fatal("tenant 2 default burst refused")
	}
	if ok, _ := a.Admit(2, 1, t0); ok {
		t.Fatal("tenant 2 admitted beyond its default burst")
	}
	for _, tenant := range []types.TenantID{0, 3, 99} {
		if ok, _ := a.Admit(tenant, 1<<20, t0); !ok {
			t.Fatalf("unrated tenant %v throttled", tenant)
		}
	}
	// No rated tenant: no admission state, and a nil Admission admits.
	if a := NewAdmission([]TenantConfig{{ID: 1, Weight: 3}}); a != nil {
		t.Fatal("admission without rates is not nil")
	}
	var none *Admission
	if ok, _ := none.Admit(1, 1<<20, t0); !ok {
		t.Fatal("nil admission throttled")
	}
}

// TestWeights checks the lane weight map defaults a zero weight to 1 and
// is nil without tenants.
func TestWeights(t *testing.T) {
	if w := Weights(nil); w != nil {
		t.Fatalf("Weights(nil) = %v", w)
	}
	got := Weights([]TenantConfig{{ID: 1, Weight: 4}, {ID: 2}})
	want := map[types.TenantID]uint32{1: 4, 2: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Weights = %v, want %v", got, want)
	}
}

// TestColorMap checks the color→tenant inversion, and that it is nil
// when no tenant claims a color.
func TestColorMap(t *testing.T) {
	if m := ColorMap([]TenantConfig{{ID: 1}}); m != nil {
		t.Fatalf("ColorMap without colors = %v", m)
	}
	got := ColorMap([]TenantConfig{
		{ID: 1, Colors: []types.ColorID{10, 11}},
		{ID: 2, Colors: []types.ColorID{20}},
	})
	want := map[types.ColorID]types.TenantID{10: 1, 11: 1, 20: 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ColorMap = %v, want %v", got, want)
	}
}
