package anchors

import (
	"testing"

	"github.com/seriesmining/valmod/internal/lb"
)

func TestBeginReseedResetsState(t *testing.T) {
	s := NewStore(4)
	a := s.At(2)
	a.Entries = append(a.Entries, lb.Entry{J: 9})
	a.Degenerate = true
	a.NextQ2 = 7

	a = s.BeginReseed(2, 3, 17)
	if len(a.Entries) != 0 || cap(a.Entries) < 3 {
		t.Fatalf("entries len=%d cap=%d, want empty with cap >= 3", len(a.Entries), cap(a.Entries))
	}
	if a.Base != 17 || a.Degenerate || a.NextQ2 >= 0 {
		t.Fatalf("state not reset: %+v", *a)
	}
}

func TestShardsPartition(t *testing.T) {
	s := NewStore(1000)
	for _, tc := range []struct{ n, count int }{
		{1000, 4}, {1000, 7}, {1000, 1}, {3, 8}, {1000, 1000}, {0, 4}, {2000, 3},
	} {
		shards := s.Shards(tc.n, tc.count)
		n := tc.n
		if n > s.Len() {
			n = s.Len()
		}
		pos := 0
		for _, sh := range shards {
			if sh.Lo != pos {
				t.Fatalf("n=%d count=%d: gap at %d (shard starts %d)", tc.n, tc.count, pos, sh.Lo)
			}
			if sh.Hi <= sh.Lo {
				t.Fatalf("n=%d count=%d: empty shard %+v", tc.n, tc.count, sh)
			}
			pos = sh.Hi
		}
		if n > 0 && pos != n {
			t.Fatalf("n=%d count=%d: shards cover [0,%d), want [0,%d)", tc.n, tc.count, pos, n)
		}
		if len(shards) > tc.count && tc.count >= 1 {
			t.Fatalf("n=%d count=%d: %d shards", tc.n, tc.count, len(shards))
		}
	}
}
