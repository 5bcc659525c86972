package sid

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSIDValid(t *testing.T) {
	cases := []struct {
		s    SID
		want bool
	}{
		{SID{1, 2, 0}, true},
		{SID{1, 1, 0}, true},
		{SID{0, 2, 0}, false},
		{SID{3, 2, 0}, false},
	}
	for _, c := range cases {
		if got := c.s.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestSIDWidth(t *testing.T) {
	if w := (SID{1, 8, 0}).Width(); w != 8 {
		t.Errorf("Width = %d, want 8", w)
	}
	if w := (SID{5, 5, 2}).Width(); w != 1 {
		t.Errorf("Width = %d, want 1", w)
	}
	if w := (SID{5, 4, 2}).Width(); w != 0 {
		t.Errorf("Width of invalid sid = %d, want 0", w)
	}
}

func TestSIDContains(t *testing.T) {
	root := SID{1, 10, 0}
	child := SID{2, 5, 1}
	grandchild := SID{3, 4, 2}
	sibling := SID{6, 9, 1}

	if !root.Contains(child) || !root.Contains(grandchild) {
		t.Error("root must contain descendants")
	}
	if !child.Contains(grandchild) {
		t.Error("child must contain grandchild")
	}
	if child.Contains(sibling) || sibling.Contains(child) {
		t.Error("siblings must not contain each other")
	}
	if child.Contains(root) {
		t.Error("containment must not be symmetric")
	}
	if root.Contains(root) {
		t.Error("containment must be strict")
	}
}

func TestSIDParentOf(t *testing.T) {
	root := SID{1, 10, 0}
	child := SID{2, 5, 1}
	grandchild := SID{3, 4, 2}

	if !root.ParentOf(child) {
		t.Error("root is parent of child")
	}
	if root.ParentOf(grandchild) {
		t.Error("root is not parent of grandchild")
	}
	if !child.ParentOf(grandchild) {
		t.Error("child is parent of grandchild")
	}
}

func TestPostingCompareTotalOrder(t *testing.T) {
	ps := []Posting{
		{0, 0, SID{1, 2, 0}},
		{0, 0, SID{1, 4, 0}},
		{0, 0, SID{2, 3, 1}},
		{0, 1, SID{1, 2, 0}},
		{1, 0, SID{1, 2, 0}},
	}
	for i := range ps {
		for j := range ps {
			got := ps[i].Compare(ps[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("ps[%d] should sort before ps[%d], Compare=%d", i, j, got)
			case i == j && got != 0:
				t.Errorf("ps[%d] should equal itself, Compare=%d", i, got)
			case i > j && got <= 0:
				t.Errorf("ps[%d] should sort after ps[%d], Compare=%d", i, j, got)
			}
		}
	}
}

func TestPostingCompareAntisymmetric(t *testing.T) {
	f := func(a, b Posting) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPostingCompareTransitiveSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := make([]Posting, 500)
	for i := range ps {
		ps[i] = Posting{
			Peer: PeerID(rng.Intn(4)),
			Doc:  DocID(rng.Intn(8)),
			SID:  SID{uint32(rng.Intn(50) + 1), uint32(rng.Intn(50) + 51), uint16(rng.Intn(6))},
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
	for i := 1; i < len(ps); i++ {
		if ps[i].Compare(ps[i-1]) < 0 {
			t.Fatalf("sorted slice out of order at %d: %v before %v", i, ps[i-1], ps[i])
		}
	}
}

func TestPostingContainsRequiresSameDoc(t *testing.T) {
	a := Posting{0, 0, SID{1, 10, 0}}
	b := Posting{0, 1, SID{2, 3, 1}}
	if a.Contains(b) {
		t.Error("postings from different documents must not contain each other")
	}
	b.Doc = 0
	if !a.Contains(b) {
		t.Error("ancestor posting must contain descendant in same doc")
	}
}

func TestMinMaxPostingBounds(t *testing.T) {
	f := func(p Posting) bool {
		return MinPosting.Compare(p) <= 0 && p.Compare(MaxPosting) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDocKeyCompare(t *testing.T) {
	ks := []DocKey{{0, 0}, {0, 5}, {1, 0}, {1, 7}}
	for i := range ks {
		for j := range ks {
			got := ks[i].Compare(ks[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v)=%d want %d", ks[i], ks[j], got, want)
			}
		}
	}
	if MinDocKey.Compare(ks[0]) != 0 {
		t.Error("MinDocKey should equal zero key")
	}
	if ks[3].Compare(MaxDocKey) >= 0 {
		t.Error("all keys must be <= MaxDocKey")
	}
}

func TestPostingKey(t *testing.T) {
	p := Posting{3, 9, SID{1, 2, 0}}
	if k := p.Key(); k != (DocKey{3, 9}) {
		t.Errorf("Key() = %v", k)
	}
}

func TestStrings(t *testing.T) {
	p := Posting{1, 2, SID{3, 4, 5}}
	if p.String() == "" || p.SID.String() == "" || p.Key().String() == "" {
		t.Error("String() should be non-empty")
	}
}

func TestPostingCodec(t *testing.T) {
	p := Posting{Peer: 0x01020304, Doc: 0x05060708, SID: SID{Start: 0x090a0b0c, End: 0x0d0e0f10, Level: 0x1112}}
	enc := AppendPosting([]byte{0xff}, p)
	want := []byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}
	if !bytes.Equal(enc, want) {
		t.Fatalf("AppendPosting = %x, want %x", enc, want)
	}
	got, pos, err := ReadPosting(enc, 1)
	if err != nil || got != p || pos != len(enc) {
		t.Fatalf("ReadPosting = %v, %d, %v", got, pos, err)
	}
	if _, _, err := ReadPosting(enc, 2); err == nil {
		t.Error("ReadPosting past the end should fail")
	}
}
