package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// TestBTreeMatchesMemUnderRandomOps drives the disk B+-tree and the
// in-memory store through the same random operation sequence and
// checks they agree after every step — a differential test of the
// B+-tree's split, delete and scan logic.
func TestBTreeMatchesMemUnderRandomOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diff.bt")
	bt, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { bt.Close() }()
	mem := NewMem()

	rng := rand.New(rand.NewSource(99))
	terms := []string{"l:a", "l:b", "w:x", "w:y", "l:c"}
	inserted := map[string]postings.List{}

	randomPosting := func() sid.Posting {
		s := uint32(rng.Intn(4000)*2 + 1)
		return sid.Posting{
			Peer: sid.PeerID(rng.Intn(4)), Doc: sid.DocID(rng.Intn(40)),
			SID: sid.SID{Start: s, End: s + 1 + uint32(rng.Intn(30)), Level: uint16(rng.Intn(6))},
		}
	}

	for step := 0; step < 400; step++ {
		term := terms[rng.Intn(len(terms))]
		switch op := rng.Intn(10); {
		case op < 6: // append a batch
			batch := make(postings.List, rng.Intn(20)+1)
			for i := range batch {
				batch[i] = randomPosting()
			}
			batch.Sort()
			batch = batch.Dedup()
			if err := bt.Append(term, batch); err != nil {
				t.Fatalf("step %d: btree append: %v", step, err)
			}
			if err := mem.Append(term, batch); err != nil {
				t.Fatalf("step %d: mem append: %v", step, err)
			}
			inserted[term] = append(inserted[term], batch...)
		case op < 8: // delete a previously inserted posting
			if len(inserted[term]) == 0 {
				continue
			}
			victim := inserted[term][rng.Intn(len(inserted[term]))]
			if err := bt.Delete(term, victim); err != nil {
				t.Fatalf("step %d: btree delete: %v", step, err)
			}
			if err := mem.Delete(term, victim); err != nil {
				t.Fatalf("step %d: mem delete: %v", step, err)
			}
		case op < 9: // drop a whole term
			if err := bt.DeleteTerm(term); err != nil {
				t.Fatalf("step %d: btree delete term: %v", step, err)
			}
			if err := mem.DeleteTerm(term); err != nil {
				t.Fatalf("step %d: mem delete term: %v", step, err)
			}
			inserted[term] = nil
		default: // partial scan comparison
			from := randomPosting()
			var a, b postings.List
			bt.Scan(term, from, func(p sid.Posting) bool { a = append(a, p); return len(a) < 50 })
			mem.Scan(term, from, func(p sid.Posting) bool { b = append(b, p); return len(b) < 50 })
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d: partial scans diverge on %q: %d vs %d", step, term, len(a), len(b))
			}
		}
		// Periodically cycle the disk tree: a clean Close/re-Open, or an
		// abandon-without-Close — the latter models a process kill at an
		// operation boundary, so WAL recovery must reconstruct every
		// committed op before the differential comparison resumes.
		if step%60 == 59 {
			if rng.Intn(2) == 0 {
				if err := bt.Close(); err != nil {
					t.Fatalf("step %d: close: %v", step, err)
				}
			} // else: abandon the handle, leaving the WAL to recovery
			bt, err = OpenBTree(path)
			if err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
		}
		// Full-state check every few steps (Get is O(list)).
		if step%25 == 0 {
			for _, tm := range terms {
				a, err := bt.Get(tm)
				if err != nil {
					t.Fatal(err)
				}
				b, err := mem.Get(tm)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: stores diverge on %q: btree %d vs mem %d postings",
						step, tm, len(a), len(b))
				}
			}
		}
	}
	// Final: terms listings agree (modulo empty terms, which Mem drops
	// on DeleteTerm while the B+-tree may keep empty ranges invisible).
	for _, tm := range terms {
		na, _ := bt.Count(tm)
		nb, _ := mem.Count(tm)
		if na != nb {
			t.Fatalf("final counts diverge on %q: %d vs %d", tm, na, nb)
		}
	}
}

// TestBTreeReopenedAfterRandomOps checks durability of a non-trivial
// tree across close/reopen.
func TestBTreeReopenedAfterRandomOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dur.bt")
	bt, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := map[string]postings.List{}
	for i := 0; i < 40; i++ {
		term := fmt.Sprintf("l:t%d", rng.Intn(8))
		batch := make(postings.List, rng.Intn(200)+1)
		for j := range batch {
			s := uint32(rng.Intn(100000)*2 + 1)
			batch[j] = sid.Posting{Peer: 1, Doc: sid.DocID(rng.Intn(1000)), SID: sid.SID{Start: s, End: s + 1, Level: 1}}
		}
		batch.Sort()
		batch = batch.Dedup()
		if err := bt.Append(term, batch); err != nil {
			t.Fatal(err)
		}
		want[term] = postings.Merge(want[term], batch).Dedup()
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	bt2, err := OpenBTree(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bt2.Close()
	for term, w := range want {
		got, err := bt2.Get(term)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("%q: %d vs %d postings after reopen", term, len(got), len(w))
		}
	}
}

// storedRuns returns the term's runs as the store keeps them, decoded.
func storedRuns(t *testing.T, r Reader, term string) []postings.List {
	t.Helper()
	var out []postings.List
	var decErr error
	err := r.Runs(term, sid.MinPosting, sid.MaxPosting, func(run postings.Run) bool {
		var l postings.List
		l, decErr = run.Decode(nil)
		out = append(out, l)
		return decErr == nil
	})
	if err == nil {
		err = decErr
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runsList reads [from, to] through Runs, checking that the runs
// stitch into exactly the encoding of the postings they carry.
func runsList(t *testing.T, r Reader, term string, from, to sid.Posting) postings.List {
	t.Helper()
	var st postings.Stitcher
	var out postings.List
	err := r.Runs(term, from, to, func(run postings.Run) bool {
		l, err := run.Decode(nil)
		if err == nil {
			out = append(out, l...)
			err = st.AddRun(run, 0, run.N)
		}
		if err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := postings.Encode(out); len(out) > 0 && !reflect.DeepEqual(st.Bytes(), want) {
		t.Fatalf("runs of %q in [%v, %v] do not stitch into the list's encoding", term, from, to)
	}
	return out
}

// TestBTreeMatchesMemAtRunEdges is the differential against Mem aimed
// at run boundaries: appends into the middle of a full run and past the
// last fence, the delete of a run's only posting, DeleteTerm beside a
// term sharing the leaf, Scan and Runs starting and ending inside runs,
// and Count. The tree's structural and run invariants are checked after
// every operation.
func TestBTreeMatchesMemAtRunEdges(t *testing.T) {
	bt := openBTreeNoSync(t)
	mem := NewMem()
	rng := rand.New(rand.NewSource(31))
	terms := []string{"l:a", "l:b", "l:c", "w:long"}
	// Odd starts leave room to append between any two postings.
	posting := func(doc, start int) sid.Posting {
		s := uint32(2*start + 1)
		return sid.Posting{Peer: 1, Doc: sid.DocID(doc), SID: sid.SID{Start: s, End: s + 1, Level: 2}}
	}
	both := func(what string, f func(s Store) error) {
		t.Helper()
		for _, s := range []Store{bt, mem} {
			if err := f(s); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	for _, term := range terms {
		n := 40
		if term == "w:long" {
			n = 900
		}
		var l postings.List
		for i := 0; i < n; i++ {
			l = append(l, posting(1+i/30, i%30*4))
		}
		both("load", func(s Store) error { return s.Append(term, l) })
	}
	compare := func(step int, what string) {
		t.Helper()
		checkInvariants(t, bt)
		for _, term := range terms {
			a, _ := bt.Get(term)
			b, _ := mem.Get(term)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d (%s): %q diverges: btree %d vs mem %d postings", step, what, term, len(a), len(b))
			}
			na, _ := bt.Count(term)
			if na != len(b) {
				t.Fatalf("step %d (%s): %q counts %d, holds %d", step, what, term, na, len(b))
			}
		}
	}
	compare(0, "load")
	for step := 1; step <= 300; step++ {
		term := terms[rng.Intn(len(terms))]
		runs := storedRuns(t, bt, term)
		var what string
		switch op := rng.Intn(6); {
		case op == 0 && len(runs) > 0: // into the middle of the fullest run
			what = "append mid-run"
			full := runs[0]
			for _, r := range runs {
				if len(r) > len(full) {
					full = r
				}
			}
			if len(full) < 2 {
				continue
			}
			i := rng.Intn(len(full) - 1)
			p := full[i]
			p.SID.Start++ // even: between full[i] and full[i+1]
			p.SID.End++
			both(what, func(s Store) error { return s.Append(term, postings.List{p, full[i]}) })
		case op == 1: // past the last fence
			what = "append past the last fence"
			last := sid.Posting{Peer: 1, Doc: 1}
			if len(runs) > 0 {
				r := runs[len(runs)-1]
				last = r[len(r)-1]
			}
			var add postings.List
			for k := rng.Intn(3) * rng.Intn(60); k >= 0; k-- {
				last.Doc += sid.DocID(rng.Intn(2))
				last.SID.Start += 2
				last.SID.End = last.SID.Start + 1
				add = append(add, last)
			}
			both(what, func(s Store) error { return s.Append(term, add) })
			if len(runs) == 0 {
				break
			}
			// The term's last run takes the postings while they fit.
			r := runs[len(runs)-1]
			var st postings.Stitcher
			if _, err := postings.MakeRun(r, &st); err != nil {
				t.Fatal(err)
			}
			after := storedRuns(t, bt, term)
			joined := false
			for _, ar := range after {
				if ar[0] == r[0] {
					joined = len(ar) > len(r) && ar[len(r)] == add[0]
				}
			}
			if fits := st.Fits(add[0], runCap(term)); joined != fits {
				t.Fatalf("step %d: %v past the last fence joined the last run: %v, fits: %v", step, add[0], joined, fits)
			}
		case op == 2 && len(runs) > 0: // a run down to its only posting, then that
			what = "delete a run's only posting"
			r := runs[rng.Intn(len(runs))]
			for _, j := range rng.Perm(len(r)) {
				both(what, func(s Store) error { return s.Delete(term, r[j]) })
			}
		case op == 3 && term != "w:long": // a short term sharing its leaf
			what = "delete term"
			both(what, func(s Store) error { return s.DeleteTerm(term) })
		case op == 4 && len(runs) > 0: // reads from inside a run to inside another
			what = "scan and runs from inside a run"
			a, b := runs[rng.Intn(len(runs))], runs[rng.Intn(len(runs))]
			from, to := a[rng.Intn(len(a))], b[rng.Intn(len(b))]
			if to.Compare(from) < 0 {
				from, to = to, from
			}
			for _, s := range []Reader{bt, mem} {
				var got postings.List
				s.Scan(term, from, func(p sid.Posting) bool { got = append(got, p); return p.Compare(to) < 0 })
				if want := runsList(t, s, term, from, to); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Scan from %v to %v holds %d postings, Runs %d", step, from, to, len(got), len(want))
				}
			}
			if a, b := runsList(t, bt, term, from, to), runsList(t, mem, term, from, to); !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d: Runs in [%v, %v] diverge: btree %d vs mem %d postings", step, from, to, len(a), len(b))
			}
		default:
			continue
		}
		compare(step, what)
	}
}

// TestLeafSplitBalancesBytes: a leaf that one entry took past
// softPageFill splits into two halves that are both back under it,
// whatever the mix of entry sizes — runs of a long term beside the
// one-posting runs of short ones.
func TestLeafSplitBalancesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 2000; trial++ {
		p := &page{typ: pageLeaf}
		for p.serializedSize() <= softPageFill {
			size := 24 + rng.Intn(64)
			if rng.Intn(2) == 0 {
				size = maxEntryLen - rng.Intn(64)
			}
			i := rng.Intn(len(p.keys) + 1)
			p.keys = append(p.keys[:i], append([][]byte{make([]byte, 20)}, p.keys[i:]...)...)
			p.vals = append(p.vals[:i], append([][]byte{make([]byte, size-entrySize(p.keys[i], nil))}, p.vals[i:]...)...)
		}
		mid := leafSplit(p)
		left := &page{typ: pageLeaf, keys: p.keys[:mid], vals: p.vals[:mid]}
		right := &page{typ: pageLeaf, keys: p.keys[mid:], vals: p.vals[mid:]}
		if mid < 1 || mid >= len(p.keys) || left.overflows() || right.overflows() {
			t.Fatalf("trial %d: %d entries of %d bytes split at %d into %d and %d bytes", trial, len(p.keys), p.serializedSize(), mid, left.serializedSize(), right.serializedSize())
		}
	}
}
