package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

func mkPosting(doc int, start uint32) sid.Posting {
	return sid.Posting{Peer: 1, Doc: sid.DocID(doc), SID: sid.SID{Start: start, End: start + 1, Level: 1}}
}

// TestNaiveMatchesMemUnderRandomOps drives the naive baseline and
// store.Mem through the same seeded operation sequence — appends,
// deletes, whole-term deletes, batches, partial scans — and checks they
// agree, term listing included, as they go: the baseline's share of the
// conformance internal/store's table checks for the other stores.
func TestNaiveMatchesMemUnderRandomOps(t *testing.T) {
	nv, err := newNaiveStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer nv.Close()
	mem := store.NewMem()
	both := []store.Store{nv, mem}

	rng := rand.New(rand.NewSource(99))
	terms := []string{"l:a", "l:b", "w:x", "w:y", "l:c"}
	inserted := map[string]postings.List{}
	randomPosting := func() sid.Posting {
		s := uint32(rng.Intn(400)*2 + 1)
		return sid.Posting{
			Peer: sid.PeerID(rng.Intn(4)), Doc: sid.DocID(rng.Intn(10)),
			SID: sid.SID{Start: s, End: s + 1 + uint32(rng.Intn(30)), Level: uint16(rng.Intn(6))},
		}
	}
	randomList := func() postings.List {
		l := make(postings.List, rng.Intn(8)+1)
		for i := range l {
			l[i] = randomPosting()
		}
		return l // unsorted, maybe with duplicates: Append must cope
	}
	victim := func(term string) (sid.Posting, bool) {
		if len(inserted[term]) == 0 {
			return sid.Posting{}, false
		}
		return inserted[term][rng.Intn(len(inserted[term]))], true
	}

	// One term emptied by Delete up front: the random walk rarely drains
	// a list posting by posting, and the Terms checks below must see
	// that an emptied term is no term.
	for _, s := range both {
		if err := s.Append("l:once", postings.List{mkPosting(1, 1)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("l:once", mkPosting(1, 1)); err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < 300; step++ {
		term := terms[rng.Intn(len(terms))]
		var apply func(s store.Store) error
		switch op := rng.Intn(10); {
		case op < 4:
			l := randomList()
			inserted[term] = append(inserted[term], l...)
			apply = func(s store.Store) error { return s.Append(term, l) }
		case op < 6:
			p, ok := victim(term)
			if !ok {
				continue
			}
			apply = func(s store.Store) error { return s.Delete(term, p) }
		case op < 7:
			inserted[term] = nil
			apply = func(s store.Store) error { return s.DeleteTerm(term) }
		case op < 9: // a batch across two terms, deleting as it goes
			other := terms[rng.Intn(len(terms))]
			la, lb := randomList(), randomList()
			p, del := victim(term)
			inserted[term] = append(inserted[term], la...)
			inserted[other] = append(inserted[other], lb...)
			apply = func(s store.Store) error {
				b := store.NewBatch()
				b.Append(term, la)
				if del {
					b.Delete(term, p)
				}
				b.Append(other, lb)
				return s.ApplyBatch(b)
			}
		default: // partial scan comparison
			from := randomPosting()
			var got [2]postings.List
			for i, s := range both {
				s.Scan(term, from, func(p sid.Posting) bool { got[i] = append(got[i], p); return len(got[i]) < 20 })
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("step %d: partial scans diverge on %q: naive %d vs mem %d", step, term, len(got[0]), len(got[1]))
			}
			continue
		}
		for _, s := range both {
			if err := apply(s); err != nil {
				t.Fatalf("step %d: %T: %v", step, s, err)
			}
		}
		if step%10 != 0 {
			continue
		}
		// Full-state check: term listings (an emptied term is gone from
		// both) and every list.
		nt, err := nv.Terms()
		if err != nil {
			t.Fatal(err)
		}
		mt, _ := mem.Terms()
		if fmt.Sprint(nt) != fmt.Sprint(mt) {
			t.Fatalf("step %d: Terms diverge: naive %v vs mem %v", step, nt, mt)
		}
		for _, tm := range terms {
			a, err := nv.Get(tm)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := mem.Get(tm)
			if len(a) != len(b) || (len(a) > 0 && !reflect.DeepEqual(a, b)) {
				t.Fatalf("step %d: stores diverge on %q: naive %d vs mem %d postings", step, tm, len(a), len(b))
			}
			if n, _ := nv.Count(tm); n != len(b) {
				t.Fatalf("step %d: naive Count(%q) = %d, want %d", step, tm, n, len(b))
			}
		}
	}
}

// TestNaiveTermsSkipsStrayEntries pins the Terms fix: non-.gz directory
// entries (tempfiles, editor droppings, subdirectories) are not terms.
func TestNaiveTermsSkipsStrayEntries(t *testing.T) {
	dir := t.TempDir()
	nv, err := newNaiveStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nv.Close()
	if err := nv.Append("l:author", postings.List{mkPosting(1, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	terms, err := nv.Terms()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(terms, []string{"l:author"}) {
		t.Fatalf("Terms = %v, want [l:author] only", terms)
	}
}

// TestNaivePercentEscapeCollision pins the path fix: a term containing
// a literal "%2F" must not share a file with a term containing "/".
func TestNaivePercentEscapeCollision(t *testing.T) {
	nv, err := newNaiveStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer nv.Close()
	pa, pb := mkPosting(1, 3), mkPosting(2, 5)
	if err := nv.Append("l:a%2Fb", postings.List{pa}); err != nil {
		t.Fatal(err)
	}
	if err := nv.Append("l:a/b", postings.List{pb}); err != nil {
		t.Fatal(err)
	}
	ga, err := nv.Get("l:a%2Fb")
	if err != nil {
		t.Fatal(err)
	}
	gb, err := nv.Get("l:a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ga) != 1 || ga[0] != pa {
		t.Fatalf("l:a%%2Fb = %v, want [%v]: the two terms collided on disk", ga, pa)
	}
	if len(gb) != 1 || gb[0] != pb {
		t.Fatalf("l:a/b = %v, want [%v]", gb, pb)
	}
	terms, err := nv.Terms()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(terms, []string{"l:a%2Fb", "l:a/b"}) {
		t.Fatalf("Terms = %v", terms)
	}
}
