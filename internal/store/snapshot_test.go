package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

func openBTreeNoSync(t *testing.T) *BTree {
	t.Helper()
	bt, err := OpenBTreeOptions(filepath.Join(t.TempDir(), "index.bt"), Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Close() })
	return bt
}

// scanStart returns the leaf a scan of term from its first posting
// seeks to, and the position it lands on.
func scanStart(t *testing.T, bt *BTree, term string) (*page, int) {
	t.Helper()
	k, err := encodeKey(term, sid.MinPosting)
	if err != nil {
		t.Fatal(err)
	}
	bt.mu.Lock()
	defer bt.mu.Unlock()
	leaf, i, err := bt.view().seek(k)
	if err != nil {
		t.Fatal(err)
	}
	return leaf, i
}

// TestSnapshotScanCrossesExhaustedLeaves: the per-leaf prefix check
// must not end a scan at a leaf that has nothing left to read. Deleting
// entries never rebalances the tree, so a seek can land past the end of
// a leaf whose entries all sort before the term, or on a leaf left
// empty; the term's runs start in the next leaf either way.
func TestSnapshotScanCrossesExhaustedLeaves(t *testing.T) {
	for _, empty := range []bool{false, true} {
		name := "past-end"
		if empty {
			name = "empty-leaf"
		}
		t.Run(name, func(t *testing.T) {
			bt := openBTreeNoSync(t)
			var a, b postings.List
			for i := 0; i < 600; i++ {
				a = append(a, mkPosting(i, 1))
				b = append(b, mkPosting(1000+i, 1))
			}
			if err := bt.Append("l:a", a); err != nil {
				t.Fatal(err)
			}
			if err := bt.Append("l:b", b); err != nil {
				t.Fatal(err)
			}
			// Empty the landing leaf of l:b's runs, and of l:a's too for
			// the empty-leaf case. A run's postings go in ascending order,
			// so its fence — its key — stays put until the last one drops
			// the entry.
			leaf, _ := scanStart(t, bt, "l:b")
			deleted := map[sid.Posting]bool{}
			vals := append([][]byte(nil), leaf.vals...)
			for i, k := range append([][]byte(nil), leaf.keys...) {
				term, last, err := decodeKey(k)
				if err != nil {
					t.Fatal(err)
				}
				if term != "l:b" && !empty {
					continue
				}
				r, err := postings.ParseRun(vals[i], last)
				if err != nil {
					t.Fatal(err)
				}
				run, err := r.Decode(nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range run {
					if term == "l:b" {
						deleted[p] = true
					}
					if err := bt.Delete(term, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			leaf, i := scanStart(t, bt, "l:b")
			if i != len(leaf.keys) || (len(leaf.keys) == 0) != empty || leaf.next == 0 {
				t.Fatalf("setup: the seek lands at %d of %d keys (next leaf %d)", i, len(leaf.keys), leaf.next)
			}
			var want postings.List
			for _, p := range b {
				if !deleted[p] {
					want = append(want, p)
				}
			}
			snap, err := bt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			for name, r := range map[string]Reader{"snapshot": snap, "live": bt} {
				got, err := r.Get("l:b")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s scan of l:b: %d postings, want %d", name, len(got), len(want))
				}
			}
		})
	}
}

// TestSnapshotSharedPageClone: snapshots that resolve a clean page from
// the cache share one clone of it; a commit to the page hands that
// clone to the open snapshots as their pre-image, so a snapshot opened
// before the commit keeps its page image and one opened after sees the
// new one. Under the race detector, readers scan the old snapshots while
// the writer mutates the very pages they were cloned from: the shared
// clone's key array is never written.
func TestSnapshotSharedPageClone(t *testing.T) {
	bt := openBTreeNoSync(t)
	var base postings.List
	for i := 0; i < 400; i++ {
		base = append(base, mkPosting(2*i, 1))
	}
	if err := bt.Append("l:a", base); err != nil {
		t.Fatal(err)
	}
	open := func() *btreeSnap {
		s, err := bt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s.(*btreeSnap)
	}
	s1, s2 := open(), open()
	leaf, _ := scanStart(t, bt, "l:a")
	p1, err := s1.page(leaf.id)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s2.page(leaf.id)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || p1 == leaf {
		t.Fatalf("snapshots resolve the clean leaf to %p and %p (live page %p), want one shared clone", p1, p2, leaf)
	}
	keys := append([][]byte(nil), p1.keys...)

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	stop := make(chan struct{})
	for _, s := range []*btreeSnap{s1, s2} {
		wg.Add(1)
		go func(s *btreeSnap) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := s.Get("l:a")
				if err == nil && !reflect.DeepEqual(got, base) {
					err = fmt.Errorf("old snapshot sees %d postings, want the pinned %d", len(got), len(base))
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(s)
	}
	// Odd documents land between the pinned ones, in the same leaves.
	var added postings.List
	for i := 0; i < 200; i++ {
		p := mkPosting(2*i+1, 1)
		added = append(added, p)
		if err := bt.Append("l:a", postings.List{p}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if pre := s1.st.overlay[leaf.id]; pre != p1 {
		t.Fatalf("the commit stashed %p as the leaf's pre-image, want the shared clone %p", pre, p1)
	}
	if len(p1.keys) != len(keys) {
		t.Fatalf("shared clone has %d keys, had %d", len(p1.keys), len(keys))
	}
	for i := range keys {
		if !bytes.Equal(p1.keys[i], keys[i]) {
			t.Fatalf("shared clone key %d changed", i)
		}
	}
	s3 := open()
	want := postings.MergeUnique(base, added)
	if got, err := s3.Get("l:a"); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot opened after the commits sees %d postings (err %v), want %d", len(got), err, len(want))
	}
	if p3, err := s3.page(leaf.id); err != nil || p3 == p1 {
		t.Fatalf("snapshot opened after the commits resolves the leaf to the old clone (err %v)", err)
	}
	if got, err := s1.Get("l:a"); err != nil || !reflect.DeepEqual(got, base) {
		t.Fatalf("old snapshot sees %d postings after the commits (err %v), want %d", len(got), err, len(base))
	}
}
