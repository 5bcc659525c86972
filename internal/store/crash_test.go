package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// ---- fault-injecting file layer ------------------------------------
//
// crashState is a write budget shared by every file of one store (page
// file and WAL). Once the budget runs out, the write in flight is
// clipped at the crash byte — modelling a torn write — and every later
// write, sync and truncate fails, modelling the process being dead.
// Reads keep working so the harness itself stays debuggable.

var errCrashed = errors.New("injected crash")

type crashState struct {
	budget int64
	dead   bool
}

type crashFile struct {
	f  file
	st *crashState
}

func (c *crashFile) ReadAt(p []byte, off int64) (int, error) { return c.f.ReadAt(p, off) }

func (c *crashFile) WriteAt(p []byte, off int64) (int, error) {
	if c.st.dead {
		return 0, errCrashed
	}
	if int64(len(p)) <= c.st.budget {
		c.st.budget -= int64(len(p))
		return c.f.WriteAt(p, off)
	}
	n := int(c.st.budget)
	c.st.dead = true
	c.st.budget = 0
	if n > 0 {
		c.f.WriteAt(p[:n], off)
	}
	return n, errCrashed
}

func (c *crashFile) Truncate(size int64) error {
	if c.st.dead {
		return errCrashed
	}
	return c.f.Truncate(size)
}

func (c *crashFile) Sync() error {
	if c.st.dead {
		return errCrashed
	}
	return c.f.Sync()
}

func (c *crashFile) Close() error { return c.f.Close() }

func (c *crashFile) Size() (int64, error) { return c.f.Size() }

// crashOpener wraps the OS opener with a shared crash budget.
func crashOpener(st *crashState) fileOpener {
	return func(path string) (file, error) {
		f, err := openOSFile(path)
		if err != nil {
			return nil, err
		}
		return &crashFile{f: f, st: st}, nil
	}
}

// countingOpener measures the total bytes a run writes, so crash points
// can be sampled across the whole write history. It also counts fsyncs:
// the batch tests assert that a whole batch costs one.
type countingState struct {
	written int64
	syncs   int64
}

func countingOpener(st *countingState) fileOpener {
	return func(path string) (file, error) {
		f, err := openOSFile(path)
		if err != nil {
			return nil, err
		}
		return &countingFile{f: f, st: st}, nil
	}
}

type countingFile struct {
	f  file
	st *countingState
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) { return c.f.ReadAt(p, off) }
func (c *countingFile) WriteAt(p []byte, off int64) (int, error) {
	c.st.written += int64(len(p))
	return c.f.WriteAt(p, off)
}
func (c *countingFile) Truncate(size int64) error { return c.f.Truncate(size) }
func (c *countingFile) Sync() error {
	c.st.syncs++
	return c.f.Sync()
}
func (c *countingFile) Close() error         { return c.f.Close() }
func (c *countingFile) Size() (int64, error) { return c.f.Size() }

// ---- structural invariants -----------------------------------------

// checkInvariants walks the whole tree and fails the test on any
// structural violation: unsorted keys, bad branch fan-out, uneven leaf
// depth, a broken or out-of-order leaf chain, unparseable keys, or a
// run that does not decode, is empty, outgrows the entry cap, ends
// elsewhere than its key's fence, or overlaps or precedes the run
// before it in its term. Page checksums are verified implicitly: every
// cold read goes through deserialize.
func checkInvariants(t *testing.T, bt *BTree) {
	t.Helper()
	pg := bt.pager
	var leafDepth = -1
	var leftmost *page
	var walk func(id uint32, depth int)
	walk = func(id uint32, depth int) {
		p, err := pg.get(id)
		if err != nil {
			t.Fatalf("invariants: read page %d: %v", id, err)
		}
		for i := 1; i < len(p.keys); i++ {
			if compareBytes(p.keys[i-1], p.keys[i]) >= 0 {
				t.Fatalf("invariants: page %d keys out of order at %d", id, i)
			}
		}
		switch p.typ {
		case pageBranch:
			if len(p.children) != len(p.keys)+1 {
				t.Fatalf("invariants: branch %d has %d keys but %d children", id, len(p.keys), len(p.children))
			}
			for _, c := range p.children {
				walk(c, depth+1)
			}
		case pageLeaf:
			if leafDepth == -1 {
				leafDepth = depth
				leftmost = p
			} else if depth != leafDepth {
				t.Fatalf("invariants: leaf %d at depth %d, expected %d", id, depth, leafDepth)
			}
			if len(p.vals) != len(p.keys) {
				t.Fatalf("invariants: leaf %d has %d keys but %d runs", id, len(p.keys), len(p.vals))
			}
			for i, k := range p.keys {
				checkRun(t, id, k, p.vals[i])
			}
		default:
			t.Fatalf("invariants: page %d has type %d", id, p.typ)
		}
	}
	walk(bt.root, 0)
	// The leaf chain delivers every key in strictly increasing order,
	// and each term's runs in posting order, disjoint.
	var prev []byte
	for p := leftmost; p != nil; {
		for i, k := range p.keys {
			if prev != nil && compareBytes(prev, k) >= 0 {
				t.Fatalf("invariants: leaf chain regresses at page %d", p.id)
			}
			term, _, _ := decodeKey(k)
			if prevTerm, prevFence, _ := decodeKey(prev); prev != nil && prevTerm == term {
				first := checkRun(t, p.id, k, p.vals[i])[0]
				if first.Compare(prevFence) <= 0 {
					t.Fatalf("invariants: leaf %d: run of %q starting at %v overlaps the run ending at %v", p.id, term, first, prevFence)
				}
			}
			prev = k
		}
		if p.next == 0 {
			break
		}
		np, err := pg.get(p.next)
		if err != nil {
			t.Fatalf("invariants: leaf chain: %v", err)
		}
		p = np
	}
}

// checkRun fails the test unless the leaf entry (key, val) of page id
// holds a well-formed run ending at its key's fence, and returns the
// run's postings.
func checkRun(t *testing.T, id uint32, key, val []byte) postings.List {
	t.Helper()
	term, fence, err := decodeKey(key)
	if err != nil {
		t.Fatalf("invariants: leaf %d: %v", id, err)
	}
	if sz := entrySize(key, val); sz > maxEntryLen {
		t.Fatalf("invariants: leaf %d: entry of %q is %d bytes, over the %d cap", id, term, sz, maxEntryLen)
	}
	r, err := postings.ParseRun(val, fence)
	if err != nil {
		t.Fatalf("invariants: leaf %d: run of %q: %v", id, term, err)
	}
	l, n, err := postings.Decode(val)
	switch {
	case err != nil:
		t.Fatalf("invariants: leaf %d: run of %q does not decode: %v", id, term, err)
	case n != len(val) || len(l) != r.N || len(l) == 0:
		t.Fatalf("invariants: leaf %d: run of %q holds %d postings in %d of %d bytes (header %d)", id, term, len(l), n, len(val), r.N)
	case l[len(l)-1] != fence:
		t.Fatalf("invariants: leaf %d: run of %q ends at %v, its fence is %v", id, term, l[len(l)-1], fence)
	}
	for i := 1; i < len(l); i++ {
		if l[i].Compare(l[i-1]) <= 0 {
			t.Fatalf("invariants: leaf %d: run of %q repeats %v", id, term, l[i])
		}
	}
	return l
}

// ---- deterministic op scripts --------------------------------------

type scriptOp struct {
	kind  int // 0 = append, 1 = delete, 2 = delete term
	term  string
	batch postings.List
	del   sid.Posting
}

// makeScript builds a deterministic operation sequence from a seed.
func makeScript(seed int64, n int) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	terms := []string{"l:a", "l:b", "w:x", "w:y"}
	var inserted []sid.Posting
	randomPosting := func() sid.Posting {
		s := uint32(rng.Intn(5000)*2 + 1)
		return sid.Posting{
			Peer: sid.PeerID(rng.Intn(3)), Doc: sid.DocID(rng.Intn(50)),
			SID: sid.SID{Start: s, End: s + 1 + uint32(rng.Intn(20)), Level: uint16(rng.Intn(5))},
		}
	}
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		term := terms[rng.Intn(len(terms))]
		switch r := rng.Intn(10); {
		case r < 7 || len(inserted) == 0:
			batch := make(postings.List, rng.Intn(30)+1)
			for j := range batch {
				batch[j] = randomPosting()
			}
			batch.Sort()
			batch = batch.Dedup()
			inserted = append(inserted, batch...)
			ops = append(ops, scriptOp{kind: 0, term: term, batch: batch})
		case r < 9:
			ops = append(ops, scriptOp{kind: 1, term: term, del: inserted[rng.Intn(len(inserted))]})
		default:
			ops = append(ops, scriptOp{kind: 2, term: term})
		}
	}
	return ops
}

// apply runs one scripted op against any Store.
func (op scriptOp) apply(s Store) error {
	switch op.kind {
	case 0:
		return s.Append(op.term, op.batch)
	case 1:
		return s.Delete(op.term, op.del)
	default:
		return s.DeleteTerm(op.term)
	}
}

// ---- the crash-recovery property -----------------------------------

// crashTrials is the per-test budget of injected crash points. The
// crash-smoke make target raises it through KADOP_CRASH_TRIALS for a
// deeper seeded sweep in CI.
func crashTrials(t *testing.T, def int) int {
	if s := os.Getenv("KADOP_CRASH_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad KADOP_CRASH_TRIALS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 4
	}
	return def
}

// TestCrashRecoveryProperty is the central durability property: for an
// arbitrary write-kill point anywhere in the byte stream — mid page
// image, mid commit record, inside a checkpoint's page flush, meta
// write or WAL truncation — reopening the tree recovers a state that
// (a) passes every structural invariant and page checksum, and
// (b) equals the committed operation prefix exactly, modulo the single
// operation in flight at the crash, which must be all-or-nothing.
//
// Occasionally the recovery run itself is crashed and recovered again,
// checking that replay is idempotent.
func TestCrashRecoveryProperty(t *testing.T) {
	trials := crashTrials(t, 48)
	const scriptLen = 60
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			seed := int64(1000 + trial/6) // several crash points per script
			script := makeScript(seed, scriptLen)
			opts := Options{checkpointBytes: 64 << 10} // checkpoint often: crash points hit the fence
			if trial%3 == 0 {
				opts.checkpointBytes = 1 // checkpoint on every commit
			}

			// Dry run: how many bytes does this script write in total?
			dir := t.TempDir()
			var count countingState
			dryOpts := opts
			dryOpts.open = countingOpener(&count)
			dry, err := openForTest(filepath.Join(dir, "dry.bt"), dryOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range script {
				if err := op.apply(dry); err != nil {
					t.Fatalf("dry run: %v", err)
				}
			}
			if err := dry.Close(); err != nil {
				t.Fatal(err)
			}
			if count.written == 0 {
				t.Fatal("dry run wrote nothing")
			}

			// Crashed run: kill the writes at a pseudo-random byte.
			rng := rand.New(rand.NewSource(int64(7919*trial + 13)))
			crashAt := rng.Int63n(count.written) + 1
			st := &crashState{budget: crashAt}
			crashOpts := opts
			crashOpts.open = crashOpener(st)
			path := filepath.Join(dir, "crash.bt")
			bt, err := openForTest(path, crashOpts)
			committed := NewMem()
			inflight := -1
			if err != nil {
				// Crashed during the very first open: nothing committed.
				bt = nil
			}
			if bt != nil {
				for i, op := range script {
					if err := op.apply(bt); err != nil {
						inflight = i
						break
					}
					if err := op.apply(committed); err != nil {
						t.Fatalf("oracle: %v", err)
					}
				}
				// Abandon bt without Close: the process just died.
			}

			// Recover — sometimes through a second crash first.
			if trial%5 == 4 {
				st2 := &crashState{budget: rng.Int63n(crashAt) + 1}
				reOpts := opts
				reOpts.open = crashOpener(st2)
				if re, err := openForTest(path, reOpts); err == nil {
					// Recovery survived the second injection; keep going
					// with this handle abandoned, final open is below.
					_ = re
				}
			}
			rec, err := openForTest(path, opts)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer rec.Close()
			checkInvariants(t, rec)

			// Contents must equal the committed prefix, allowing the
			// in-flight op to have committed atomically right before the
			// crash (its WAL append can land before the error surfaces).
			withInflight := NewMem()
			end := 0
			if bt != nil {
				end = len(script)
				if inflight >= 0 {
					end = inflight + 1
				}
			}
			for _, op := range script[:end] {
				if err := op.apply(withInflight); err != nil {
					t.Fatalf("oracle: %v", err)
				}
			}
			for _, term := range []string{"l:a", "l:b", "w:x", "w:y"} {
				got, err := rec.Get(term)
				if err != nil {
					t.Fatalf("recovered get %q: %v", term, err)
				}
				want, _ := committed.Get(term)
				wantIn, _ := withInflight.Get(term)
				if !reflect.DeepEqual(got, want) && !reflect.DeepEqual(got, wantIn) {
					t.Fatalf("crash@%d: term %q: recovered %d postings, committed %d, committed+inflight %d",
						crashAt, term, len(got), len(want), len(wantIn))
				}
			}
		})
	}
}

// openForTest opens a BTree with explicit options, including the test
// opener hook.
func openForTest(path string, opts Options) (*BTree, error) {
	return OpenBTreeOptions(path, opts)
}

// TestCrashSweepMetaFence sweeps densely spaced crash points through a
// small run with a checkpoint at every commit, so the kill lands inside
// the page flush, the meta write and the WAL truncation of checkpoints
// over and over. Pins the meta-page ordering bug: before the WAL, the
// meta page was rewritten in the same unordered pass as the data pages,
// so a crash could publish a root pointing at unwritten pages.
func TestCrashSweepMetaFence(t *testing.T) {
	script := makeScript(42, 25)
	opts := Options{checkpointBytes: 1}

	dir := t.TempDir()
	var count countingState
	dryOpts := opts
	dryOpts.open = countingOpener(&count)
	dry, err := openForTest(filepath.Join(dir, "dry.bt"), dryOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range script {
		if err := op.apply(dry); err != nil {
			t.Fatal(err)
		}
	}
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}

	step := count.written / int64(crashTrials(t, 64))
	if step < 1 {
		step = 1
	}
	for crashAt := step; crashAt <= count.written; crashAt += step {
		st := &crashState{budget: crashAt}
		crashOpts := opts
		crashOpts.open = crashOpener(st)
		path := filepath.Join(dir, fmt.Sprintf("sweep%d.bt", crashAt))
		bt, err := openForTest(path, crashOpts)
		committed := NewMem()
		inflight := -1
		if err == nil {
			for i, op := range script {
				if err := op.apply(bt); err != nil {
					inflight = i
					break
				}
				op.apply(committed)
			}
		}
		// The in-flight op is all-or-nothing: recovery must land on the
		// committed state, or on committed plus the whole in-flight op
		// (its transaction reached the WAL before the crash).
		withInflight := NewMem()
		end := 0
		if bt != nil {
			end = len(script)
			if inflight >= 0 {
				end = inflight + 1
			}
		}
		for _, op := range script[:end] {
			op.apply(withInflight)
		}
		rec, err := openForTest(path, opts)
		if err != nil {
			t.Fatalf("crash@%d: recovery open: %v", crashAt, err)
		}
		checkInvariants(t, rec)
		for _, term := range []string{"l:a", "l:b", "w:x", "w:y"} {
			got, _ := rec.Get(term)
			want, _ := committed.Get(term)
			wantIn, _ := withInflight.Get(term)
			if !reflect.DeepEqual(got, want) && !reflect.DeepEqual(got, wantIn) {
				t.Fatalf("crash@%d: term %q: recovered %d postings, committed %d, committed+inflight %d",
					crashAt, term, len(got), len(want), len(wantIn))
			}
		}
		rec.Close()
	}
}
