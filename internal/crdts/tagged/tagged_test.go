package tagged

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
)

// TestKeyText pins the instance keys that aw-set and rw-set states are keyed
// by, and that AppendKeys puts on the wire: the element's rendering, '@',
// then the tag as node '#' sequence number. Each key must also match the
// fmt rendering it replaced, byte for byte.
func TestKeyText(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{E: model.Str("a b"), T: Tag{Node: -2, Seq: -7}}, `"a b"@t-2#-7`},
		{Inst{E: model.Int(-5), T: Tag{Node: 3, Seq: 1 << 40}}, `-5@t3#1099511627776`},
		{Inst{E: model.Pair(model.Int(1), model.Str("x")), T: Tag{Node: -1, Seq: math.MinInt64}},
			`(1, "x")@t-1#-9223372036854775808`},
	}
	for _, c := range cases {
		if got := c.in.Key(); got != c.want {
			t.Errorf("Key() = %s, want %s", got, c.want)
		}
		if old := fmt.Sprintf("%s@t%d#%d", c.in.E, int(c.in.T.Node), c.in.T.Seq); c.in.Key() != old {
			t.Errorf("Key() = %s, fmt rendered %s", c.in.Key(), old)
		}
	}
}
