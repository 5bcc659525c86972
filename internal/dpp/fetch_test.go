package dpp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"kadop/internal/dht"
	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

// tapTransport counts the streams one peer opens, per target, and can
// cut them: every stream to cutAddr dies after cutAfter chunks, until
// cuts runs out.
type tapTransport struct {
	dht.Transport

	mu       sync.Mutex
	streams  map[string]int
	cutAddr  string
	cutAfter int
	cuts     int
}

// Metrics keeps the node's accounting on the network's collector, as
// the unwrapped endpoint does.
func (t *tapTransport) Metrics() *metrics.Collector {
	return t.Transport.(interface{ Metrics() *metrics.Collector }).Metrics()
}

func (t *tapTransport) OpenStream(ctx context.Context, to dht.Contact, req dht.Message) (dht.MsgStream, error) {
	t.mu.Lock()
	t.streams[to.Addr]++
	cut := to.Addr == t.cutAddr && t.cuts > 0
	if cut {
		t.cuts--
	}
	t.mu.Unlock()
	ms, err := t.Transport.OpenStream(ctx, to, req)
	if err != nil || !cut {
		return ms, err
	}
	return &cutStream{MsgStream: ms, left: t.cutAfter}, nil
}

func (t *tapTransport) opened() (total int, byAddr map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byAddr = map[string]int{}
	for a, n := range t.streams {
		byAddr[a] = n
		total += n
	}
	return total, byAddr
}

type cutStream struct {
	dht.MsgStream
	left int
}

func (s *cutStream) Recv() (dht.Message, error) {
	if s.left == 0 {
		s.MsgStream.Close()
		return dht.Message{}, errors.New("connection reset by peer")
	}
	s.left--
	return s.MsgStream.Recv()
}

// tappedCluster is a cluster whose peer `at` sends through a tap, with
// one term overflowed into blocks; it returns the tap and the root as
// the tapped peer fetched it.
func tappedCluster(t *testing.T, at int, n int) (*cluster, *tapTransport, *Root, postings.List) {
	t.Helper()
	var tap *tapTransport
	c := newClusterOn(t, 8, Options{BlockSize: 20}, func(i int, tr dht.Transport) dht.Transport {
		if i != at {
			return tr
		}
		tap = &tapTransport{Transport: tr, streams: map[string]int{}}
		return tap
	})
	want := seqPostings(n, 5)
	if err := c.managers[0].Append(context.Background(), "l:author", want, ""); err != nil {
		t.Fatal(err)
	}
	root, err := c.managers[at].Root(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Blocks) < 20 {
		t.Fatalf("want at least 20 blocks, got %d", len(root.Blocks))
	}
	return c, tap, root, want
}

func holders(root *Root) map[string]int {
	by := map[string]int{}
	for _, b := range root.Blocks {
		by[b.Owner]++
	}
	return by
}

// TestVectoredFetchStaleOwnerTable is the stale-owner/empty-clip table
// of the one fetch path. Every case must return exactly the postings in
// the interval; what differs is whether a failover was owed.
func TestVectoredFetchStaleOwnerTable(t *testing.T) {
	const at = 3
	lo, hi := sid.DocKey{Peer: 1, Doc: 30}, sid.DocKey{Peer: 1, Doc: 34}
	// Every block is requested and all but a couple clip to nothing at
	// their holder.
	opts := FetchOptions{Filter: true, FilterLo: lo, FilterHi: hi, NoConditionFilter: true}

	fetch := func(t *testing.T, c *cluster, root *Root, want postings.List) (lookups int64) {
		t.Helper()
		before := c.net.Collector.Hist(metrics.OpLookup).Count()
		s, plan, err := c.managers[at].FetchWithRoot(context.Background(), root, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := postings.Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Fetched != len(root.Blocks) {
			t.Fatalf("plan fetched %d of %d blocks; the table needs all of them requested", plan.Fetched, len(root.Blocks))
		}
		if clipped := want.ClipDocs(lo, hi); !reflect.DeepEqual(got, clipped) {
			t.Fatalf("fetched %d postings, want the interval's %d", len(got), len(clipped))
		}
		return c.net.Collector.Hist(metrics.OpLookup).Count() - before
	}

	t.Run("held key clipped empty is accepted", func(t *testing.T) {
		c, tap, root, want := tappedCluster(t, at, 600)
		if lookups := fetch(t, c, root, want); lookups != 0 {
			t.Errorf("%d lookups: an empty clip from a holder of the key must not fail over", lookups)
		}
		total, by := tap.opened()
		owners := holders(root)
		delete(owners, c.nodes[at].Self().Addr) // own blocks are read locally
		if total != len(owners) {
			t.Errorf("opened %d streams %v, want one per remote holder (%d)", total, by, len(owners))
		}
	})

	t.Run("holder lacking the key fails over", func(t *testing.T) {
		c, _, root, want := tappedCluster(t, at, 600)
		// Point one block that has postings in the interval at a peer
		// that never held it.
		moved := false
		for i, b := range root.Blocks {
			if b.Hi.Key().Compare(lo) >= 0 && b.Lo.Key().Compare(hi) <= 0 {
				for _, nd := range c.nodes {
					if a := nd.Self().Addr; a != b.Owner && a != c.nodes[at].Self().Addr {
						root.Blocks[i].Owner, moved = a, true
						break
					}
				}
				break
			}
		}
		if !moved {
			t.Fatal("no block intersects the interval")
		}
		if lookups := fetch(t, c, root, want); lookups == 0 {
			t.Error("no lookup: the stale owner's block was not located")
		}
	})

	t.Run("holder dead mid-stream fails over", func(t *testing.T) {
		c, tap, root, want := tappedCluster(t, at, 600)
		// The holder of the most blocks (not the fetching peer) drops
		// its stream before the first frame arrives: packed, that frame
		// would carry its whole share.
		victim, most := "", 0
		for a, n := range holders(root) {
			if a != c.nodes[at].Self().Addr && n > most {
				victim, most = a, n
			}
		}
		tap.mu.Lock()
		tap.cutAddr, tap.cutAfter, tap.cuts = victim, 0, 1
		tap.mu.Unlock()
		fetch(t, c, root, want)
		if _, by := tap.opened(); by[victim] < 2 {
			t.Errorf("%d streams to the cut holder: its undelivered keys were not fetched again", by[victim])
		}
	})
}

// shutGate is an admission gate that rejects every read.
type shutGate struct{}

func (shutGate) Allow() bool    { return false }
func (shutGate) Shedding() bool { return true }

// TestFetchCancelsFanOutOnError pins that a failed block ends the whole
// fetch: once the error has surfaced at the consumer, the holder
// streams still running are abandoned and the ones not yet started never
// start. The holder of the most blocks rejects every read; it starts
// first (largest holder first), and the root is cut to begin at its
// first block, so that block fails first, after one failover. The links
// are slow enough that the other holders' frames are still in flight
// then.
func TestFetchCancelsFanOutOnError(t *testing.T) {
	c := newCluster(t, 8, Options{BlockSize: 10})
	want := seqPostings(3000, 5)
	if err := c.managers[0].Append(context.Background(), "l:author", want, ""); err != nil {
		t.Fatal(err)
	}
	full, err := c.managers[0].Root(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	victim, most := "", 0
	for a, n := range holders(full) {
		if n > most {
			victim, most = a, n
		}
	}
	root := *full
	for i, b := range full.Blocks {
		if b.Owner == victim {
			root.Blocks = full.Blocks[i:]
			break
		}
	}
	at := 0
	for i, nd := range c.nodes {
		if nd.Self().Addr != victim {
			at = i
			break
		}
	}
	col := c.net.Collector
	col.Reset()
	s, _, err := c.managers[at].FetchWithRoot(context.Background(), &root, FetchOptions{parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := postings.Drain(s); err != nil {
		t.Fatal(err)
	}
	whole := col.Bytes(metrics.Postings)

	for _, nd := range c.nodes {
		if nd.Self().Addr == victim {
			nd.SetShedGate(shutGate{})
		}
	}
	c.net.SetModel(dht.LinkModel{Latency: time.Millisecond, BytesPerSec: 100 << 10})
	defer c.net.SetModel(dht.LinkModel{})
	col.Reset()
	s, _, err = c.managers[at].FetchWithRoot(context.Background(), &root, FetchOptions{parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := postings.Drain(s); err == nil || !dht.IsOverload(err) {
		t.Fatalf("drain error = %v, want the first holder's overload rejection", err)
	}
	surfaced := col.Bytes(metrics.Postings)
	// In flight when the error surfaced: at most a frame per open stream
	// being charged, and one more each before its reader sees the
	// cancellation.
	time.Sleep(100 * time.Millisecond)
	settled := col.Bytes(metrics.Postings)
	time.Sleep(50 * time.Millisecond)
	if later := col.Bytes(metrics.Postings); later != settled {
		t.Errorf("posting bytes still growing 100ms after the error: %d -> %d", settled, later)
	}
	perBlock := whole / int64(len(root.Blocks))
	if slack := 3 * 2 * 2 * perBlock; settled-surfaced > slack {
		t.Errorf("%d posting bytes charged after the error surfaced, more than the %d in flight", settled-surfaced, slack)
	}
	if settled > whole/2 {
		t.Errorf("failed fetch moved %d of the list's %d posting bytes: the fan-out ran on", settled, whole)
	}
}

// TestInlineRootConsistentUnderAppends reads the root of an inline term
// from many goroutines — at its home peer and over the wire — while
// appends land on it back to back. The summary scan runs outside the
// manager lock, so each served (Count, Gen) pair must still be one the
// term actually had: every append adds ten postings and bumps the
// generation once.
func TestInlineRootConsistentUnderAppends(t *testing.T) {
	c := newCluster(t, 6, Options{BlockSize: 1 << 20})
	const appends, per = 200, 10
	all := seqPostings(appends*per, 5)
	owner, err := c.nodes[0].Locate("l:title")
	if err != nil {
		t.Fatal(err)
	}
	var home *Manager
	for i, nd := range c.nodes {
		if nd.Self().ID == owner.ID {
			home = c.managers[i]
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		read := func() (*Root, error) { return home.LocalRoot("l:title") }
		if g%4 == 0 {
			read = func() (*Root, error) { return c.managers[g%len(c.managers)].Root(context.Background(), "l:title") }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				root, err := read()
				if err != nil {
					t.Error(err)
					return
				}
				if len(root.Blocks) != 0 || root.Count != per*int(root.Gen) {
					t.Errorf("served root with %d blocks, count %d at generation %d: never a state of the term", len(root.Blocks), root.Count, root.Gen)
					return
				}
			}
		}()
	}
	for i := 0; i < appends; i++ {
		err := home.appendHome(context.Background(), "l:title", all[i*per:(i+1)*per], "")
		if err != nil {
			t.Error(fmt.Errorf("append %d: %w", i, err))
			break
		}
		runtime.Gosched() // let the readers interleave with every append
	}
	close(done)
	wg.Wait()
}
