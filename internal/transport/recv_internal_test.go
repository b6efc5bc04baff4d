package transport

import "testing"

func TestRecvPolicyNormalized(t *testing.T) {
	cases := []struct {
		in, want RecvPolicy
	}{
		{RecvPolicy{}, RecvPolicy{Workers: 1, QueueFrames: 64}},
		{RecvPolicy{Workers: -3, QueueFrames: -1}, RecvPolicy{Workers: 1, QueueFrames: 64}},
		{RecvPolicy{Workers: 4}, RecvPolicy{Workers: 4, QueueFrames: 64}},
		{RecvPolicy{Workers: 1, QueueFrames: 7}, RecvPolicy{Workers: 1, QueueFrames: 7}},
	}
	for _, c := range cases {
		if got := c.in.normalized(); got != c.want {
			t.Errorf("normalized(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}
