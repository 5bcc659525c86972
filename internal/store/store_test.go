package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

// Every implementation of the contract, checked at compile time.
var (
	_ Store = (*Mem)(nil)
	_ Store = (*BTree)(nil)
	_ Store = (*Coalescer)(nil)
	_ Store = (*Instrumented)(nil)
)

func openTestBTree(t *testing.T) Store {
	t.Helper()
	bt, err := OpenBTree(filepath.Join(t.TempDir(), "index.bt"))
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// storeTable lists the two stores and the wrapper stacks that actually
// run: dht.NewNode meters whatever it is given, and NewTCPPeer puts the
// coalescer over the disk tree when batching is on. The conformance
// tests below run over every row, so a wrapper that drops or distorts
// part of the contract fails the same test the bare store passes.
var storeTable = []struct {
	name string
	open func(t *testing.T) Store
}{
	{"mem", func(*testing.T) Store { return NewMem() }},
	{"btree", openTestBTree},
	{"instrument(mem)", func(*testing.T) Store { return Instrument(NewMem(), metrics.NewLoad(8)) }},
	{"coalescer(btree)", func(t *testing.T) Store { return NewCoalescer(openTestBTree(t), CoalesceOptions{}) }},
	{"instrument(coalescer(btree))", func(t *testing.T) Store {
		return Instrument(NewCoalescer(openTestBTree(t), CoalesceOptions{}), metrics.NewLoad(8))
	}},
}

// eachStore runs fn as a subtest against a fresh instance of every row
// of storeTable, closing the store afterwards.
func eachStore(t *testing.T, fn func(t *testing.T, s Store)) {
	for _, c := range storeTable {
		t.Run(c.name, func(t *testing.T) {
			s := c.open(t)
			defer s.Close()
			fn(t, s)
		})
	}
}

func randomList(rng *rand.Rand, n int) postings.List {
	l := make(postings.List, n)
	for i := range l {
		start := uint32(rng.Intn(10000) + 1)
		l[i] = sid.Posting{
			Peer: sid.PeerID(rng.Intn(10)),
			Doc:  sid.DocID(rng.Intn(100)),
			SID:  sid.SID{Start: start, End: start + uint32(rng.Intn(50)) + 1, Level: uint16(rng.Intn(10))},
		}
	}
	l.Sort()
	return l.Dedup()
}

func TestStoreBasicRoundTrip(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		rng := rand.New(rand.NewSource(1))
		want := randomList(rng, 500)
		if err := s.Append("l:author", want); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("l:author")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Get = %d postings, want %d", len(got), len(want))
		}
		n, err := s.Count("l:author")
		if err != nil || n != len(want) {
			t.Fatalf("Count = %d (%v), want %d", n, err, len(want))
		}
		if got, _ := s.Get("l:absent"); len(got) != 0 {
			t.Fatal("absent term should be empty")
		}
	})
}

func TestStoreAppendMergesOutOfOrder(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		rng := rand.New(rand.NewSource(2))
		full := randomList(rng, 300)
		// Append in shuffled chunks: result must still be sorted.
		idx := rng.Perm(len(full))
		for i := 0; i < len(idx); i += 37 {
			end := i + 37
			if end > len(idx) {
				end = len(idx)
			}
			var chunk postings.List
			for _, j := range idx[i:end] {
				chunk = append(chunk, full[j])
			}
			if err := s.Append("w:xml", chunk); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Get("w:xml")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("merged list mismatch: %d vs %d postings", len(got), len(full))
		}
	})
}

func TestStoreScanFrom(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		rng := rand.New(rand.NewSource(3))
		l := randomList(rng, 200)
		if err := s.Append("l:title", l); err != nil {
			t.Fatal(err)
		}
		from := l[len(l)/2]
		var got postings.List
		if err := s.Scan("l:title", from, func(p sid.Posting) bool {
			got = append(got, p)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want := l[len(l)/2:]
		if !reflect.DeepEqual(got, postings.List(want)) {
			t.Fatalf("Scan from middle: %d vs %d", len(got), len(want))
		}
		// Early stop.
		n := 0
		s.Scan("l:title", sid.MinPosting, func(sid.Posting) bool {
			n++
			return n < 10
		})
		if n != 10 {
			t.Fatalf("early stop scanned %d", n)
		}
	})
}

func TestStoreDelete(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		rng := rand.New(rand.NewSource(4))
		l := randomList(rng, 100)
		if err := s.Append("l:x", l); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("l:x", l[10]); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("l:x", sid.Posting{Peer: 99, Doc: 99, SID: sid.SID{Start: 1, End: 2}}); err != nil {
			t.Fatal("deleting absent posting should not error:", err)
		}
		got, _ := s.Get("l:x")
		if len(got) != len(l)-1 {
			t.Fatalf("after delete: %d postings", len(got))
		}
		for _, p := range got {
			if p == l[10] {
				t.Fatal("deleted posting still present")
			}
		}
		if err := s.DeleteTerm("l:x"); err != nil {
			t.Fatal(err)
		}
		if n, _ := s.Count("l:x"); n != 0 {
			t.Fatalf("after DeleteTerm: %d postings", n)
		}
	})
}

func TestStoreTerms(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		p := postings.List{{Peer: 1, Doc: 1, SID: sid.SID{Start: 1, End: 2, Level: 0}}}
		for _, term := range []string{"l:title", "l:author", "w:xml"} {
			if err := s.Append(term, p); err != nil {
				t.Fatal(err)
			}
		}
		terms, err := s.Terms()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"l:author", "l:title", "w:xml"}
		if !reflect.DeepEqual(terms, want) {
			t.Fatalf("Terms = %v, want %v", terms, want)
		}
		// A term whose last posting is deleted is no longer a term, live
		// or through a snapshot, in every store alike.
		if err := s.Delete("l:title", p[0]); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		want = []string{"l:author", "w:xml"}
		for name, r := range map[string]Reader{"live": s, "snapshot": snap} {
			if terms, err := r.Terms(); err != nil || !reflect.DeepEqual(terms, want) {
				t.Fatalf("%s Terms after emptying l:title = %v (%v), want %v", name, terms, err, want)
			}
		}
	})
}

func TestStoreManyTermsInterleaved(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		rng := rand.New(rand.NewSource(5))
		want := map[string]postings.List{}
		for round := 0; round < 30; round++ {
			for term := 0; term < 20; term++ {
				key := fmt.Sprintf("l:t%02d", term)
				chunk := randomList(rng, 20)
				if err := s.Append(key, chunk); err != nil {
					t.Fatal(err)
				}
				want[key] = postings.Merge(want[key], chunk)
			}
		}
		for key, w := range want {
			w = w.Dedup()
			got, err := s.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: %d vs %d postings", key, len(got), len(w))
			}
		}
	})
}

func TestBTreePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.bt")
	bt, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	want := randomList(rng, 2000)
	if err := bt.Append("l:author", want); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	bt2, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bt2.Close()
	got, err := bt2.Get("l:author")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened tree: %d vs %d postings", len(got), len(want))
	}
}

func TestBTreeLargeLoadSplitsPages(t *testing.T) {
	bt, err := OpenBTree(filepath.Join(t.TempDir(), "big.bt"))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	// Enough sequential postings to force multi-level splits.
	var l postings.List
	for i := 0; i < 30000; i++ {
		s := uint32(2*i + 1)
		l = append(l, sid.Posting{Peer: 1, Doc: sid.DocID(i / 100), SID: sid.SID{Start: s, End: s + 1, Level: 3}})
	}
	if err := bt.Append("l:author", l); err != nil {
		t.Fatal(err)
	}
	pages, height := bt.Stats()
	if height < 2 {
		t.Errorf("expected a multi-level tree, height = %d", height)
	}
	if pages < 10 {
		t.Errorf("expected many pages, got %d", pages)
	}
	n, err := bt.Count("l:author")
	if err != nil || n != len(l) {
		t.Fatalf("Count = %d (%v), want %d", n, err, len(l))
	}
	// Order preserved across splits.
	got, err := bt.Get("l:author")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatal("large load round trip mismatch")
	}
}

func TestBTreeRejectsBadTerms(t *testing.T) {
	bt, err := OpenBTree(filepath.Join(t.TempDir(), "x.bt"))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	p := postings.List{{Peer: 1, Doc: 1, SID: sid.SID{Start: 1, End: 2, Level: 0}}}
	if err := bt.Append("", p); err == nil {
		t.Error("empty term should be rejected")
	}
	if err := bt.Append("bad\x00term", p); err == nil {
		t.Error("NUL in term should be rejected")
	}
}

func TestBTreeRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-btree")
	if err := writeJunk(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBTree(path); err == nil {
		t.Fatal("foreign file should be rejected")
	}
}

func writeJunk(path string) error {
	junk := make([]byte, pageSize)
	for i := range junk {
		junk[i] = byte(i)
	}
	return writeFile(path, junk)
}

func TestStoreAppendEmpty(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if err := s.Append("l:x", nil); err != nil {
			t.Fatal(err)
		}
		if n, _ := s.Count("l:x"); n != 0 {
			t.Fatal("empty append created postings")
		}
	})
}

func TestKeyCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := randomList(rng, 1)[0]
		term := fmt.Sprintf("l:term%d", rng.Intn(50))
		k, err := encodeKey(term, p)
		if err != nil {
			t.Fatal(err)
		}
		gt, gp, err := decodeKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if gt != term || gp != p {
			t.Fatalf("round trip: %q %v -> %q %v", term, p, gt, gp)
		}
	}
	if _, _, err := decodeKey([]byte("nonsense")); err == nil {
		t.Error("malformed key should be rejected")
	}
}

func TestKeyOrderMatchesPostingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := randomList(rng, 300)
	for i := 1; i < len(l); i++ {
		a, _ := encodeKey("l:x", l[i-1])
		b, _ := encodeKey("l:x", l[i])
		if compareBytes(a, b) >= 0 {
			t.Fatalf("key order violates posting order at %d: %v vs %v", i, l[i-1], l[i])
		}
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
