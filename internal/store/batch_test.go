package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

func mkPosting(doc int, start uint32) sid.Posting {
	return sid.Posting{Peer: 1, Doc: sid.DocID(doc), SID: sid.SID{Start: start, End: start + 1, Level: 1}}
}

// TestApplyBatchRoundTrip checks batch semantics against the same ops
// applied one by one, for every row of the store table.
func TestApplyBatchRoundTrip(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		rng := rand.New(rand.NewSource(7))
		oracle := NewMem()
		b := NewBatch()
		for i := 0; i < 20; i++ {
			term := fmt.Sprintf("l:t%d", i%5)
			l := randomList(rng, 40)
			b.Append(term, l)
			if err := oracle.Append(term, l); err != nil {
				t.Fatal(err)
			}
		}
		// Delete something appended earlier in the same batch: order
		// within the batch must hold.
		victim := mkPosting(999, 7)
		b.Append("l:t0", postings.List{victim})
		b.Delete("l:t0", victim)
		if b.Len() != 22 {
			t.Fatalf("Len = %d, want 22", b.Len())
		}
		if err := ApplyBatch(s, b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			term := fmt.Sprintf("l:t%d", i)
			got, err := s.Get(term)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := oracle.Get(term)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %d postings, want %d", term, len(got), len(want))
			}
		}
	})
}

// TestApplyBatchRejectsBadOpWholesale: a malformed term anywhere in the
// batch fails the whole batch before any page is touched.
func TestApplyBatchRejectsBadOpWholesale(t *testing.T) {
	bt, err := OpenBTree(filepath.Join(t.TempDir(), "index.bt"))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	b := NewBatch()
	b.Append("l:good", postings.List{mkPosting(1, 3)})
	b.Append("bad\x00term", postings.List{mkPosting(1, 5)})
	if err := bt.ApplyBatch(b); err == nil {
		t.Fatal("batch with NUL term should fail")
	}
	if n, _ := bt.Count("l:good"); n != 0 {
		t.Fatalf("rejected batch leaked %d postings", n)
	}
}

// TestApplyBatchSingleSync pins the group-commit economics: at
// FsyncAlways, N appends cost N syncs one by one but exactly one as a
// batch.
func TestApplyBatchSingleSync(t *testing.T) {
	const ops = 32
	run := func(batched bool) int64 {
		var count countingState
		opts := Options{Fsync: FsyncAlways, open: countingOpener(&count)}
		bt, err := OpenBTreeOptions(filepath.Join(t.TempDir(), "index.bt"), opts)
		if err != nil {
			t.Fatal(err)
		}
		base := count.syncs
		if batched {
			b := NewBatch()
			for i := 0; i < ops; i++ {
				b.Append(fmt.Sprintf("l:t%d", i%4), postings.List{mkPosting(i, uint32(2*i+1))})
			}
			if err := bt.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < ops; i++ {
				if err := bt.Append(fmt.Sprintf("l:t%d", i%4), postings.List{mkPosting(i, uint32(2*i+1))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		n := count.syncs - base
		if err := bt.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := run(true); n != 1 {
		t.Fatalf("batched: %d syncs, want 1", n)
	}
	if n := run(false); n != ops {
		t.Fatalf("unbatched: %d syncs, want %d", n, ops)
	}
}

// snapshotters returns the stores the snapshot-isolation tests run on:
// both implementations, and the disk tree under the full wrapper stack
// a batching peer runs (the isolation must survive the wrappers).
func snapshotters(t *testing.T) map[string]Store {
	t.Helper()
	open := func() Store {
		bt, err := OpenBTreeOptions(filepath.Join(t.TempDir(), "index.bt"),
			Options{Fsync: FsyncOff, checkpointBytes: 32 << 10}) // checkpoint often under the test
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	return map[string]Store{
		"mem":                          NewMem(),
		"btree":                        open(),
		"instrument(coalescer(btree))": Instrument(NewCoalescer(open(), CoalesceOptions{}), metrics.NewLoad(8)),
	}
}

// TestSnapshotPinsGeneration: a snapshot keeps serving the state at its
// creation while the live store moves on, including through deletes and
// whole-term deletes.
func TestSnapshotPinsGeneration(t *testing.T) {
	for name, s := range snapshotters(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			rng := rand.New(rand.NewSource(11))
			before := randomList(rng, 300)
			if err := s.Append("l:a", before); err != nil {
				t.Fatal(err)
			}
			if err := s.Append("l:gone", before[:10].Clone()); err != nil {
				t.Fatal(err)
			}
			snap := SnapshotOf(s)
			if snap == nil {
				t.Fatal("store should support snapshots")
			}
			defer snap.Close()

			// Move the live store well past the snapshot: enough inserts
			// to split pages, plus deletes.
			for i := 0; i < 40; i++ {
				if err := s.Append("l:a", randomList(rng, 100)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Delete("l:a", before[0]); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteTerm("l:gone"); err != nil {
				t.Fatal(err)
			}

			got, err := snap.Get("l:a")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, before) {
				t.Fatalf("snapshot sees %d postings, want the pinned %d", len(got), len(before))
			}
			if n, _ := snap.Count("l:gone"); n != 10 {
				t.Fatalf("snapshot Count(l:gone) = %d, want 10", n)
			}
			terms, err := snap.Terms()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(terms, []string{"l:a", "l:gone"}) {
				t.Fatalf("snapshot Terms = %v", terms)
			}
			// The live store did move.
			if n, _ := s.Count("l:gone"); n != 0 {
				t.Fatal("live store should have dropped l:gone")
			}
		})
	}
}

// TestSnapshotBracketsBatch: through every wrapper stack, a snapshot
// taken before an ApplyBatch sees none of the batch and one taken after
// sees all of it.
func TestSnapshotBracketsBatch(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		rng := rand.New(rand.NewSource(12))
		base := randomList(rng, 50)
		if err := s.Append("l:a", base); err != nil {
			t.Fatal(err)
		}
		before, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer before.Close()

		b := NewBatch()
		added := postings.List{mkPosting(500, 1), mkPosting(500, 3)}
		b.Append("l:a", added[:1])
		b.Append("l:new", added)
		b.Delete("l:a", base[0])
		if err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		after, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer after.Close()

		if got, _ := before.Get("l:a"); !reflect.DeepEqual(got, base) {
			t.Fatalf("snapshot before the batch sees %d postings of l:a, want the original %d", len(got), len(base))
		}
		if n, _ := before.Count("l:new"); n != 0 {
			t.Fatalf("snapshot before the batch sees %d postings of l:new", n)
		}
		wantA := postings.MergeUnique(base[1:], added[:1])
		if got, _ := after.Get("l:a"); !reflect.DeepEqual(got, wantA) {
			t.Fatalf("snapshot after the batch sees %d postings of l:a, want %d", len(got), len(wantA))
		}
		if got, _ := after.Get("l:new"); !reflect.DeepEqual(got, added) {
			t.Fatalf("snapshot after the batch: l:new = %v, want %v", got, added)
		}
	})
}

// TestSnapshotNeverTearsBatch is the snapshot-isolation property under
// the race detector: a writer applies batches that keep the invariant
// count(l:a) == count(l:b), while readers pin snapshots at arbitrary
// moments. A reader observing unequal counts has seen half a batch.
func TestSnapshotNeverTearsBatch(t *testing.T) {
	for name, s := range snapshotters(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			const rounds = 60
			const readers = 4
			var wg sync.WaitGroup
			errc := make(chan error, readers+1)
			stop := make(chan struct{})

			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				for i := 0; i < rounds; i++ {
					b := NewBatch()
					// Uneven shapes so a torn batch is visible: 3 postings
					// to l:a, 3 to l:b, interleaved as separate ops.
					for j := 0; j < 3; j++ {
						p := mkPosting(i, uint32(2*(i*3+j)+1))
						b.Append("l:a", postings.List{p})
						b.Append("l:b", postings.List{p})
					}
					if err := ApplyBatch(s, b); err != nil {
						errc <- err
						return
					}
				}
			}()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						snap := SnapshotOf(s)
						if snap == nil {
							errc <- fmt.Errorf("no snapshot")
							return
						}
						na, err := snap.Count("l:a")
						if err != nil {
							snap.Close()
							errc <- err
							return
						}
						nb, err := snap.Count("l:b")
						snap.Close()
						if err != nil {
							errc <- err
							return
						}
						if na != nb {
							errc <- fmt.Errorf("torn batch: count(l:a)=%d count(l:b)=%d", na, nb)
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			if na, _ := s.Count("l:a"); na != rounds*3 {
				t.Fatalf("final count(l:a) = %d, want %d", na, rounds*3)
			}
		})
	}
}

// TestCrashTornBatchAllOrNothing: kill the writes at arbitrary byte
// offsets while a multi-term batch commits; recovery must land on the
// pre-batch state or the full post-batch state, never part of the
// batch. This is the batch extension of the per-op crash property.
func TestCrashTornBatchAllOrNothing(t *testing.T) {
	terms := []string{"l:a", "l:b", "w:x"}
	buildBatch := func(rng *rand.Rand) *Batch {
		b := NewBatch()
		for _, term := range terms {
			b.Append(term, randomList(rng, 25))
		}
		return b
	}

	// Dry run: total bytes written by setup + batch.
	dir := t.TempDir()
	var count countingState
	opts := Options{Fsync: FsyncAlways, checkpointBytes: 16 << 10}
	dryOpts := opts
	dryOpts.open = countingOpener(&count)
	dry, err := openForTest(filepath.Join(dir, "dry.bt"), dryOpts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	seedList := randomList(rng, 50)
	if err := dry.Append("l:a", seedList); err != nil {
		t.Fatal(err)
	}
	if err := dry.ApplyBatch(buildBatch(rng)); err != nil {
		t.Fatal(err)
	}
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}

	trials := crashTrials(t, 48)
	step := count.written / int64(trials)
	if step < 1 {
		step = 1
	}
	for crashAt := step; crashAt <= count.written; crashAt += step {
		rng := rand.New(rand.NewSource(99)) // same postings every trial
		seedList := randomList(rng, 50)
		batch := buildBatch(rng)

		committed := NewMem()
		withBatch := NewMem()
		committed.Append("l:a", seedList)
		withBatch.Append("l:a", seedList)
		ApplyBatch(withBatch, batch)

		st := &crashState{budget: crashAt}
		crashOpts := opts
		crashOpts.open = crashOpener(st)
		path := filepath.Join(dir, fmt.Sprintf("crash%d.bt", crashAt))
		bt, err := openForTest(path, crashOpts)
		seeded, batchDone := false, false
		if err == nil {
			if err := bt.Append("l:a", seedList); err == nil {
				seeded = true
				if err := bt.ApplyBatch(batch); err == nil {
					batchDone = true
				}
			}
			// Abandon without Close: the process died.
		}
		rec, err := openForTest(path, opts)
		if err != nil {
			t.Fatalf("crash@%d: recovery open: %v", crashAt, err)
		}
		checkInvariants(t, rec)
		// Oracles for the states recovery may land on: nothing, the
		// seed, or seed+batch. The op in flight at the crash may have
		// committed just before the kill, so both sides stay allowed.
		for _, term := range terms {
			got, err := rec.Get(term)
			if err != nil {
				t.Fatalf("crash@%d: get %q: %v", crashAt, term, err)
			}
			wantSeed, _ := committed.Get(term)
			wantBatch, _ := withBatch.Get(term)
			okEmpty := len(got) == 0 && !batchDone && (!seeded || term != "l:a")
			okSeed := reflect.DeepEqual(got, wantSeed)
			okBatch := reflect.DeepEqual(got, wantBatch)
			if !okEmpty && !okSeed && !okBatch {
				t.Fatalf("crash@%d: term %q: recovered %d postings (seeded=%v batchDone=%v): torn batch",
					crashAt, term, len(got), seeded, batchDone)
			}
			// The core atomicity check: a partially applied batch would
			// show l:b non-empty while w:x is empty (map iteration aside,
			// both arrive in the same transaction), or a shorter list.
		}
		// All-or-nothing across terms: either every batch-only term is
		// at its full batch size, or every one is empty.
		nb, _ := rec.Count("l:b")
		nx, _ := rec.Count("w:x")
		wb, _ := withBatch.Count("l:b")
		wx, _ := withBatch.Count("w:x")
		if !((nb == 0 && nx == 0) || (nb == wb && nx == wx)) {
			t.Fatalf("crash@%d: partial batch: l:b=%d/%d w:x=%d/%d", crashAt, nb, wb, nx, wx)
		}
		// An acknowledged batch (FsyncAlways) must survive in full.
		if batchDone && (nb != wb || nx != wx) {
			t.Fatalf("crash@%d: acknowledged batch lost: l:b=%d/%d w:x=%d/%d", crashAt, nb, wb, nx, wx)
		}
		rec.Close()
	}
}

// TestCoalescerGroupsConcurrentWrites: concurrent appends through the
// coalescer all land and are visible to their callers on return, and
// the store syncs far fewer times than once per op.
func TestCoalescerGroupsConcurrentWrites(t *testing.T) {
	var count countingState
	bt, err := OpenBTreeOptions(filepath.Join(t.TempDir(), "index.bt"),
		Options{Fsync: FsyncAlways, open: countingOpener(&count)})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoalescer(bt, CoalesceOptions{})
	const writers = 8
	const perWriter = 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := mkPosting(w, uint32(2*(w*perWriter+i)+1))
				if err := c.Append(fmt.Sprintf("l:w%d", w), postings.List{p}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		if n, err := c.Count(fmt.Sprintf("l:w%d", w)); err != nil || n != perWriter {
			t.Fatalf("writer %d: count=%d err=%v, want %d", w, n, err, perWriter)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count("l:w0"); err == nil {
		t.Fatal("closed coalescer should reject reads via inner store")
	}
	// Not asserting an exact sync count (scheduling-dependent), but the
	// coalescer must have batched at least some of the 240 ops.
	if count.syncs >= writers*perWriter {
		t.Fatalf("no batching happened: %d syncs for %d ops", count.syncs, writers*perWriter)
	}
}

// TestCoalescerFallsBackPerOp: a bad op rejects only itself; batch
// peers still land.
func TestCoalescerFallsBackPerOp(t *testing.T) {
	bt, err := OpenBTree(filepath.Join(t.TempDir(), "index.bt"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoalescer(bt, CoalesceOptions{MaxDelay: 5 * time.Millisecond}) // let both ops meet in one batch
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = c.Append("l:good", postings.List{mkPosting(1, 3)}) }()
	go func() { defer wg.Done(); errs[1] = c.Append("bad\x00term", postings.List{mkPosting(1, 5)}) }()
	wg.Wait()
	if errs[0] != nil {
		t.Fatalf("good op failed: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("bad op should fail")
	}
	if n, _ := c.Count("l:good"); n != 1 {
		t.Fatalf("good op did not land: count=%d", n)
	}
}

// TestCoalescerDeleteTermOrders: a DeleteTerm queued after appends of
// the same term applies after them.
func TestCoalescerDeleteTermOrders(t *testing.T) {
	c := NewCoalescer(NewMem(), CoalesceOptions{})
	defer c.Close()
	if err := c.Append("l:a", postings.List{mkPosting(1, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteTerm("l:a"); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.Count("l:a"); n != 0 {
		t.Fatalf("count after DeleteTerm = %d", n)
	}
}

// TestMemScanAllocs pins the lazy-scan fix: stopping after one posting
// of a 10k list must not clone the whole tail (which allocated O(list)
// per call before).
func TestMemScanAllocs(t *testing.T) {
	m := NewMem()
	rng := rand.New(rand.NewSource(3))
	if err := m.Append("l:big", randomList(rng, 10000)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		n := 0
		m.Scan("l:big", sid.MinPosting, func(sid.Posting) bool {
			n++
			return n < 2
		})
	})
	// The closure escapes, so allow a couple of fixed allocations — but
	// nothing proportional to the 10k-posting list.
	if allocs > 4 {
		t.Fatalf("Scan allocates %.0f objects per call; early-stopped scans must not clone the tail", allocs)
	}
}
