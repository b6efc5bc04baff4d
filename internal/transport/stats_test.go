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
