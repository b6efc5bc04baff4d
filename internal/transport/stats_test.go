package transport

import (
	"testing"
	"time"
)

// TestBatchPolicyNormalized pins the normalization contract: MaxFrames < 1
// becomes 1 (unbatched), negative MaxBytes and MaxDelay become 0 (the knob
// is off), and already-sane policies pass through untouched — so downstream
// trigger checks may treat zero as "disabled" without re-guarding.
func TestBatchPolicyNormalized(t *testing.T) {
	cases := []struct {
		name     string
		in, want BatchPolicy
	}{
		{"zero value", BatchPolicy{}, BatchPolicy{MaxFrames: 1}},
		{"negative frames", BatchPolicy{MaxFrames: -3}, BatchPolicy{MaxFrames: 1}},
		{"zero frames keeps caps", BatchPolicy{MaxBytes: 512}, BatchPolicy{MaxFrames: 1, MaxBytes: 512}},
		{"negative bytes", BatchPolicy{MaxFrames: 8, MaxBytes: -1}, BatchPolicy{MaxFrames: 8}},
		{"negative delay", BatchPolicy{MaxFrames: 8, MaxDelay: -time.Second}, BatchPolicy{MaxFrames: 8}},
		{"all negative", BatchPolicy{MaxFrames: -1, MaxBytes: -9, MaxDelay: -1}, BatchPolicy{MaxFrames: 1}},
		{
			"sane untouched",
			BatchPolicy{MaxFrames: 32, MaxBytes: 1 << 20, MaxDelay: 5 * time.Millisecond},
			BatchPolicy{MaxFrames: 32, MaxBytes: 1 << 20, MaxDelay: 5 * time.Millisecond},
		},
	}
	for _, c := range cases {
		if got := c.in.normalized(); got != c.want {
			t.Errorf("%s: normalized() = %+v, want %+v", c.name, got, c.want)
		}
	}
	// Normalization is idempotent.
	for _, c := range cases {
		once := c.in.normalized()
		if twice := once.normalized(); twice != once {
			t.Errorf("%s: normalization not idempotent: %+v then %+v", c.name, once, twice)
		}
	}
}

// TestSchedPolicyNormalized pins the scheduler policy contract: sub-1 weights
// become 1, as does every unlisted object's, non-positive max-delay overrides
// are dropped, and a negative chunk size means no chunking.
func TestSchedPolicyNormalized(t *testing.T) {
	p := SchedPolicy{
		Weights:     map[ObjID]int{1: 0, 2: -4, 3: 7},
		MaxDelay:    map[ObjID]time.Duration{1: -time.Second, 2: 0, 3: 3 * time.Millisecond},
		ChunkFrames: -1,
	}.normalized()
	if p.ChunkFrames != 0 {
		t.Errorf("ChunkFrames = %d, want 0", p.ChunkFrames)
	}
	for id, want := range map[ObjID]int{1: 1, 2: 1, 3: 7, 99: 1} {
		if got := p.weight(id); got != want {
			t.Errorf("weight(%d) = %d, want %d", id, got, want)
		}
	}
	if _, kept := p.MaxDelay[1]; kept {
		t.Error("negative max-delay override survived normalization")
	}
	if _, kept := p.MaxDelay[2]; kept {
		t.Error("zero max-delay override survived normalization")
	}
	if d := p.delayFor(3, time.Minute); d != 3*time.Millisecond {
		t.Errorf("delayFor(3) = %s, want the 3ms override", d)
	}
	if d := p.delayFor(99, time.Minute); d != time.Minute {
		t.Errorf("delayFor(99) = %s, want the shared 1m delay", d)
	}
}

// TestDelayHistogram sanity-checks the bucket mapping and the quantile
// accessor: buckets are monotone, a quantile never exceeds the recorded
// maximum, and a single sample reports itself (within bucket resolution).
func TestDelayHistogram(t *testing.T) {
	last := -1
	for _, ns := range []int64{0, 1, 7, 8, 100, 1_000, 50_000, 1_000_000, 3_000_000_000} {
		idx := delayBucketIdx(ns)
		if idx < last {
			t.Fatalf("bucket index not monotone at %dns: %d < %d", ns, idx, last)
		}
		if up := delayBucketUpper(idx); int64(up) < ns {
			t.Fatalf("bucket upper bound %s below the sample %dns", up, ns)
		}
		last = idx
	}
	var ss SchedStats
	ss.noteQueued(7)
	ss.noteDrained(7, 100*time.Microsecond, true)
	o := ss.Objects[7]
	if o.DelaySamples != 1 || o.DelayMax != 100*time.Microsecond {
		t.Fatalf("sample not recorded: %+v", o)
	}
	p99 := o.DelayQuantile(0.99)
	if p99 != o.DelayMax {
		t.Errorf("single-sample p99 = %s, want the max %s", p99, o.DelayMax)
	}
	if o.DelayQuantile(0) != 0 {
		t.Error("q=0 should report 0")
	}
	// Many small + one large: the median stays small, the p99 reaches the
	// large sample's bucket.
	for i := 0; i < 99; i++ {
		ss.noteQueued(8)
		ss.noteDrained(8, 10*time.Microsecond, true)
	}
	ss.noteQueued(8)
	ss.noteDrained(8, 10*time.Millisecond, true)
	o8 := ss.Objects[8]
	if med := o8.DelayQuantile(0.5); med > 20*time.Microsecond {
		t.Errorf("median %s far above the 10µs mass", med)
	}
	if p := o8.DelayQuantile(0.995); p < 9*time.Millisecond {
		t.Errorf("p99.5 %s misses the 10ms outlier", p)
	}
}
