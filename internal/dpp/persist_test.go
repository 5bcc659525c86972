package dpp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kadop/internal/dht"
	"kadop/internal/postings"
	"kadop/internal/reclog"
	"kadop/internal/sid"
)

func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dpp.log")
	l, roots, _, err := openRootLog(path, reclog.OSOpen)
	if err != nil {
		t.Fatal(err)
	}
	roots["l:a"] = &Root{
		Term: "l:a", Ordered: true,
		Blocks: []BlockRef{{
			Lo:  sid.Posting{Peer: 1, Doc: 2, SID: sid.SID{Start: 1, End: 2, Level: 1}},
			Hi:  sid.Posting{Peer: 1, Doc: 9, SID: sid.SID{Start: 5, End: 6, Level: 1}},
			Key: "overflow:1:l:a", Owner: "127.0.0.1:9999", Count: 42, Gen: 3,
			Types: []string{"dblp"},
		}},
	}
	roots["w:x"] = &Root{Term: "w:x", Gen: 5, Types: []string{"dblp"}} // inline
	for _, r := range roots {
		if err := l.Append(rootRecord(r, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, next, err := openRootLog(path, reclog.OSOpen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, roots) {
		t.Fatalf("roots did not round-trip: %+v vs %+v", got, roots)
	}
	if in := got["w:x"]; in == nil || in.Gen != 5 || !reflect.DeepEqual(in.Types, []string{"dblp"}) {
		t.Fatal("inline metadata did not round-trip")
	}
	if next != 7 {
		t.Fatalf("next = %d, want 7", next)
	}
}

func TestPersistMissingFileIsEmpty(t *testing.T) {
	_, roots, next, err := openRootLog(filepath.Join(t.TempDir(), "absent.log"), reclog.OSOpen)
	if err != nil {
		t.Fatalf("load of missing file: %v", err)
	}
	if len(roots) != 0 || next != 0 {
		t.Fatal("missing file should load as empty state")
	}
}

func TestPersistCorruptFileFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.log")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openRootLog(path, reclog.OSOpen); err == nil {
		t.Fatal("corrupt state file should fail load")
	}
}

// TestRootLogTornTail damages the last record of a three-record log —
// cut short, or garbled in place — and the log loads the first two;
// the same damage to the middle record fails the load.
func TestRootLogTornTail(t *testing.T) {
	recs := []*Root{{Term: "w:a", Gen: 1}, {Term: "w:b", Gen: 1}, {Term: "w:c", Gen: 1}}
	var ends []int // end offset of each record
	logPath := filepath.Join(t.TempDir(), "dpp.log")
	l, _, _, err := openRootLog(logPath, reclog.OSOpen)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := l.Append(rootRecord(r, i)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(fi.Size()))
	}
	l.Close()
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		damage  func([]byte) []byte
		wantErr bool
	}{
		{"tail cut short", func(b []byte) []byte { return b[:len(b)-3] }, false},
		{"tail header cut short", func(b []byte) []byte { return b[:ends[1]+5] }, false},
		{"tail garbled", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, false},
		{"middle garbled", func(b []byte) []byte { b[ends[1]-1] ^= 0xff; return b }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dpp.log")
			if err := os.WriteFile(path, tc.damage(slices.Clone(data)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, roots, next, err := openRootLog(path, reclog.OSOpen)
			if tc.wantErr {
				if err == nil {
					t.Fatal("a bad record before the tail loaded")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]*Root{"w:a": recs[0], "w:b": recs[1]}
			if !reflect.DeepEqual(roots, want) || next != 1 {
				t.Fatalf("loaded %v (next %d), want the first two records", roots, next)
			}
			// The rewrite at open dropped the tail: the file reloads alike.
			if _, again, _, err := openRootLog(path, reclog.OSOpen); err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("reload after open: %v, %v", again, err)
			}
		})
	}
}

// countingLog counts the bytes written through the files it opens.
type countingLog struct{ written int64 }

func (c *countingLog) open(name string, flag int) (reclog.File, error) {
	f, err := reclog.OSOpen(name, flag)
	return &countingFile{File: f, c: c}, err
}

type countingFile struct {
	reclog.File
	c *countingLog
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.written += int64(n)
	return n, err
}

// TestRootLogBytesPerMutation is the root log's cost bound: a home
// holding 2 000 inline terms takes 200 appends to one of them, and the
// log grows by at most 200 records of that term's size — the bytes a
// mutation writes do not depend on how many roots the home holds. The
// home then reopens on the compacted log and serves the same roots,
// and no root or block generation goes backwards.
func TestRootLogBytesPerMutation(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, 1, Options{BlockSize: 256})
	m, st := c.managers[0], c.nodes[0].Store()
	var recs []reclog.Record
	for i := range 2000 {
		term := fmt.Sprintf("w:t%d", i)
		if err := st.Append(term, seqPostings(1, 1)); err != nil {
			t.Fatal(err)
		}
		m.roots[term] = &Root{Term: term, Gen: 1, Types: []string{"dblp"}}
		recs = append(recs, rootRecord(m.roots[term], m.next))
	}
	path := filepath.Join(t.TempDir(), "dpp.log")
	var count countingLog
	var err error
	if m.log, _, _, err = openRootLog(path, count.open); err != nil {
		t.Fatal(err)
	}
	if err := m.log.Append(recs...); err != nil {
		t.Fatal(err)
	}

	const hot, appends = "w:t0", 200
	count.written = 0
	for i := range appends {
		p := postings.List{{Peer: 2, Doc: sid.DocID(i), SID: sid.SID{Start: 1, End: 2, Level: 1}}}
		if err := m.appendHome(ctx, hot, p, "dblp"); err != nil {
			t.Fatal(err)
		}
	}
	if bound := appends * recordSize(t, m.roots[hot], m.next); count.written > bound {
		t.Fatalf("%d appends to one of %d terms wrote %d bytes of root log, more than %d records of its size (%d bytes)",
			appends, len(m.roots), count.written, appends, bound)
	}

	// An overflowed term too, so blocks carry generations.
	if err := m.appendHome(ctx, "l:big", seqPostings(300, 5), ""); err != nil {
		t.Fatal(err)
	}
	if err := m.appendHome(ctx, "l:big", postings.List{{Peer: 3, Doc: 1, SID: sid.SID{Start: 1, End: 2, Level: 1}}}, ""); err != nil {
		t.Fatal(err)
	}
	if len(m.roots["l:big"].Blocks) < 2 {
		t.Fatalf("l:big did not overflow: %+v", m.roots["l:big"])
	}
	before := map[string]*Root{}
	for term := range m.roots {
		if before[term], err = m.LocalRoot(term); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(c.nodes[0], Options{BlockSize: 256, PersistPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for term, want := range before {
		got, err := m2.LocalRoot(term)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after reopen: %+v, want %+v", term, got, want)
		}
	}
	for _, term := range []string{hot, "l:big"} {
		p := postings.List{{Peer: 4, Doc: 1, SID: sid.SID{Start: 1, End: 2, Level: 1}}}
		if err := m2.appendHome(ctx, term, p, ""); err != nil {
			t.Fatal(err)
		}
		after := m2.roots[term]
		if after.Gen <= before[term].Gen {
			t.Errorf("%s: root generation %d after reopen, was %d", term, after.Gen, before[term].Gen)
		}
		for i, b := range after.Blocks {
			if b.Gen < before[term].Blocks[i].Gen {
				t.Errorf("%s block %d: generation %d after reopen, was %d", term, i, b.Gen, before[term].Blocks[i].Gen)
			}
		}
	}
}

// recordSize is the bytes one record of r's root takes in a log.
func recordSize(t *testing.T, r *Root, next int) int64 {
	var count countingLog
	l, _, _, err := openRootLog(filepath.Join(t.TempDir(), "one.log"), count.open)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	count.written = 0
	if err := l.Append(rootRecord(r, next)); err != nil {
		t.Fatal(err)
	}
	return count.written
}

// failKeyAppend wraps a peer's transport: a block write to key fails
// at once, as if its owner had crashed before taking it. The error is
// not retryable, so the owner stays in the sender's routing table.
type failKeyAppend struct {
	dht.Transport
	mu  sync.Mutex
	key string
}

func (f *failKeyAppend) Call(ctx context.Context, to dht.Contact, req dht.Message) (dht.Message, error) {
	f.mu.Lock()
	fail := req.Type == dht.MsgAppend && req.Key == f.key
	f.mu.Unlock()
	if fail {
		return dht.Message{}, fmt.Errorf("injected loss of %s: %w", req.Key, context.Canceled)
	}
	return f.Transport.Call(ctx, to, req)
}

// TestReservedKeysSurviveReload fails an overflow after its first piece
// landed, reloads the home's manager from its persisted state, and
// overflows the term again with other postings. The new pieces must not
// reuse the orphaned piece's pseudo-key: the list fetched is exactly the
// acknowledged postings, in blocks with disjoint ranges.
func TestReservedKeysSurviveReload(t *testing.T) {
	ctx := context.Background()
	wraps := map[int]*failKeyAppend{}
	c := newClusterOn(t, 8, Options{BlockSize: 16}, func(i int, tr dht.Transport) dht.Transport {
		wraps[i] = &failKeyAppend{Transport: tr}
		return wraps[i]
	})
	// A term whose second overflow piece is owned away from its home, so
	// the home's transport carries (and can lose) that piece.
	var term string
	var home int
	for i := 0; term == ""; i++ {
		cand := fmt.Sprintf("l:t%d", i)
		home = homeOf(t, c, cand)
		if homeOf(t, c, "overflow:2:"+cand) != home {
			term = cand
		}
	}
	path := filepath.Join(t.TempDir(), "dpp.log")
	open := func() *Manager {
		m, err := NewManager(c.nodes[home], Options{BlockSize: 16, PersistPath: path})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	reader := c.managers[(home+1)%len(c.nodes)]
	m := open()
	base := seqPostings(16, 4) // inline, at the bound
	if err := m.Append(ctx, term, base, ""); err != nil {
		t.Fatal(err)
	}
	// Even SIDs of the first document: in the first piece.
	lost := postings.List{
		{Peer: 1, Doc: 0, SID: sid.SID{Start: 2, End: 3, Level: 2}},
		{Peer: 1, Doc: 0, SID: sid.SID{Start: 4, End: 5, Level: 2}},
	}
	wraps[home].key = "overflow:2:" + term
	if err := m.Append(ctx, term, lost, ""); err == nil {
		t.Fatal("overflow succeeded though its second piece was lost")
	}
	wraps[home].key = ""

	m.Close()
	m = open() // the home restarts from its persisted state
	defer m.Close()
	later := postings.List{
		{Peer: 1, Doc: 0, SID: sid.SID{Start: 10, End: 11, Level: 2}},
		{Peer: 1, Doc: 0, SID: sid.SID{Start: 12, End: 13, Level: 2}},
	}
	if err := m.Append(ctx, term, later, ""); err != nil {
		t.Fatal(err)
	}
	want := postings.MergeUnique(base, later)
	root, err := reader.Root(ctx, term)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Blocks) < 2 {
		t.Fatalf("term did not overflow: %+v", root)
	}
	for i, b := range root.Blocks {
		if b.Key == "overflow:1:"+term {
			t.Errorf("block %d reuses the orphaned key %s", i, b.Key)
		}
		if i > 0 && root.Blocks[i-1].Hi.Compare(b.Lo) >= 0 {
			t.Errorf("blocks %d and %d overlap: %v..%v then %v..%v", i-1, i, root.Blocks[i-1].Lo, root.Blocks[i-1].Hi, b.Lo, b.Hi)
		}
	}
	s, _, err := reader.Fetch(term, FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		var extra []string
		for _, p := range got {
			if !slices.Contains(want, p) {
				extra = append(extra, fmt.Sprint(p))
			}
		}
		t.Fatalf("fetched %d postings, want the %d acknowledged; unacknowledged: %s", len(got), len(want), strings.Join(extra, " "))
	}
}

// ---- crash injection -------------------------------------------------
//
// crashState is a write budget shared by every file the log opens. Once
// it runs out, the write in flight is clipped at the crash byte — a
// torn write — and every later write and sync fails: the process is
// dead.

var errCrashed = errors.New("injected crash")

type crashState struct {
	budget int64
	dead   bool
}

func (st *crashState) open(name string, flag int) (reclog.File, error) {
	f, err := reclog.OSOpen(name, flag)
	return &crashFile{File: f, st: st}, err
}

type crashFile struct {
	reclog.File
	st *crashState
}

func (c *crashFile) Write(p []byte) (int, error) {
	if c.st.dead {
		return 0, errCrashed
	}
	if int64(len(p)) <= c.st.budget {
		c.st.budget -= int64(len(p))
		return c.File.Write(p)
	}
	n := int(c.st.budget)
	c.st.dead, c.st.budget = true, 0
	c.File.Write(p[:n])
	return n, errCrashed
}

func (c *crashFile) Sync() error {
	if c.st.dead {
		return errCrashed
	}
	return c.File.Sync()
}

// crashTrials is the per-test budget of injected crash points, raised
// through KADOP_CRASH_TRIALS by the crash-smoke make target.
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

// logOp is one root-log append of a script: a term's new root, or the
// counter alone (root nil).
type logOp struct {
	root *Root
	next int
}

// logScript makes a seeded run of appends over a few terms, some inline
// and some with blocks, with counter-only reservations among them. Few
// terms keep the live size small, so the log compacts every few appends.
func logScript(seed int64, n int) []logOp {
	rng := rand.New(rand.NewSource(seed))
	gens := map[string]uint64{}
	var ops []logOp
	next := 0
	for range n {
		if rng.Intn(6) == 0 {
			next += 1 + rng.Intn(3)
			ops = append(ops, logOp{next: next})
			continue
		}
		term := fmt.Sprintf("l:t%d", rng.Intn(5))
		gens[term]++
		r := &Root{Term: term, Gen: gens[term], Types: []string{"dblp"}}
		for b := range rng.Intn(4) {
			lo := sid.Posting{Peer: 1, Doc: sid.DocID(10 * b), SID: sid.SID{Start: 1, End: 2, Level: 1}}
			hi := lo
			hi.Doc += 9
			r.Blocks = append(r.Blocks, BlockRef{Lo: lo, Hi: hi, Key: fmt.Sprintf("overflow:%d:%s", b+1, term),
				Owner: "sim://3", Count: 1 + rng.Intn(50), Gen: uint64(rng.Intn(9))})
			r.Ordered = true
		}
		ops = append(ops, logOp{root: r, next: next})
	}
	return ops
}

// logState is what a log holds after a prefix of a script.
func logState(ops []logOp) (map[string]*Root, int) {
	roots, next := map[string]*Root{}, 0
	for _, op := range ops {
		if op.root != nil {
			roots[op.root.Term] = op.root
		}
		next = op.next
	}
	return roots, next
}

// runLog opens a log through open and appends ops to it as a manager
// would; it returns how many appends succeeded, or -1 if the open
// itself failed.
func runLog(path string, open reclog.OpenFunc, ops []logOp) int {
	l, _, _, err := openRootLog(path, open)
	if err != nil {
		return -1
	}
	for i, op := range ops {
		if l.Append(rootRecord(op.root, op.next)) != nil {
			return i
		}
	}
	l.Close()
	return len(ops)
}

// TestCrashRootLogRecovery kills the root log's writes at a seeded byte
// offset anywhere in a script's history — mid record, mid compaction,
// at the open's own compaction — and reopens it: the roots and counter
// recovered are those of the committed prefix of appends, the one in
// flight present whole or not at all. Some trials crash the recovering
// open too before the final one.
func TestCrashRootLogRecovery(t *testing.T) {
	trials := crashTrials(t, 48)
	for trial := range trials {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			ops := logScript(int64(500+trial/6), 40) // several crash points per script
			dir := t.TempDir()
			var count countingLog
			if n := runLog(filepath.Join(dir, "dry.log"), count.open, ops); n != len(ops) {
				t.Fatalf("dry run stopped at append %d", n)
			}

			rng := rand.New(rand.NewSource(int64(7919*trial + 17)))
			crashAt := rng.Int63n(count.written) + 1
			path := filepath.Join(dir, "crash.log")
			done := runLog(path, (&crashState{budget: crashAt}).open, ops)
			if trial%5 == 4 {
				runLog(path, (&crashState{budget: rng.Int63n(crashAt) + 1}).open, nil)
			}

			_, roots, next, err := openRootLog(path, reclog.OSOpen)
			if err != nil {
				t.Fatalf("crash@%d: recovery open: %v", crashAt, err)
			}
			committed, cnext := logState(ops[:max(done, 0)])
			if reflect.DeepEqual(roots, committed) && next == cnext {
				return
			}
			if done >= 0 && done < len(ops) {
				if inflight, inext := logState(ops[:done+1]); reflect.DeepEqual(roots, inflight) && next == inext {
					return
				}
			}
			t.Fatalf("crash@%d after %d appends: recovered %d roots (next %d), want the committed %d (next %d) or with the one in flight",
				crashAt, done, len(roots), next, len(committed), cnext)
		})
	}
}

// TestRootLogConcurrentAppends has four publishers append to a durable
// home's terms at once, through overflows, splits and compactions,
// while a reader serves their roots; the home reopened on its log then
// holds exactly the roots and counter it held in memory.
func TestRootLogConcurrentAppends(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, 4, Options{BlockSize: 8})
	const terms = 6
	path := filepath.Join(t.TempDir(), "dpp.log")
	home, err := NewManager(c.nodes[0], Options{BlockSize: 8, PersistPath: path})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := home.LocalRoot(fmt.Sprintf("l:t%d", i%terms)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var writes sync.WaitGroup
	for w := range 4 {
		writes.Add(1)
		go func() {
			defer writes.Done()
			for i := range 30 {
				p := postings.List{{Peer: sid.PeerID(w + 1), Doc: sid.DocID(i), SID: sid.SID{Start: 1, End: 2, Level: 1}}}
				if err := home.appendHome(ctx, fmt.Sprintf("l:t%d", i%terms), p, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writes.Wait()
	close(stop)
	reads.Wait()
	if err := home.Close(); err != nil {
		t.Fatal(err)
	}
	_, roots, next, err := openRootLog(path, reclog.OSOpen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roots, home.roots) || next != home.next {
		t.Fatalf("reopened log: %d roots, next %d; the home held %d, next %d", len(roots), next, len(home.roots), home.next)
	}
}
