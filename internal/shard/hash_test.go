package shard

import (
	"testing"

	"bcq/internal/value"
)

// TestHashKeyPinned pins the shard hash on a few keys. Durable shard
// directories route recovered tuples by the placement this hash induced
// when they were written, so any change to its values would strand tuples
// on the wrong shard after an upgrade. The expected values are the
// FNV-1a hashes of rel ‖ 0x00 ‖ value.Tuple.Key().
func TestHashKeyPinned(t *testing.T) {
	cases := []struct {
		rel  string
		key  value.Tuple
		want uint64
	}{
		{"friend", nil, 9414423483107148247},
		{"friend", value.Tuple{value.Int(0)}, 8461760287547016930},
		{"friend", value.Tuple{value.Int(12345)}, 8477128161571494477},
		{"person", value.Tuple{value.Int(-7), value.Str("x")}, 14339850898812024438},
		{"lineitem", value.Tuple{value.Str("O'Brien"), value.Null, value.Int(1 << 40)}, 3787356756799360709},
	}
	for _, c := range cases {
		if got := hashKey(c.rel, []byte(c.key.Key())); got != c.want {
			t.Errorf("hashKey(%q, %v) = %d, want %d", c.rel, c.key, got, c.want)
		}
		pos := make([]int, len(c.key))
		for i := range pos {
			pos[i] = i
		}
		if got := hashTuple(c.rel, c.key, pos); got != c.want {
			t.Errorf("hashTuple(%q, %v) = %d, want %d", c.rel, c.key, got, c.want)
		}
	}
}

// TestHashTupleAllocatesNothing checks that routing a probe or an op
// builds no key string.
func TestHashTupleAllocatesNothing(t *testing.T) {
	x := value.Tuple{value.Int(42), value.Str("abc")}
	pos := []int{1, 0}
	if n := testing.AllocsPerRun(100, func() { hashTuple("friend", x, pos) }); n != 0 {
		t.Errorf("hashTuple allocated %.0f times per call, want 0", n)
	}
}
