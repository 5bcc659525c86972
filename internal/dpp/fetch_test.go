package dpp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kadop/internal/dht"
	"kadop/internal/metrics"
	"kadop/internal/obs/cost"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
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
	opts := FetchOptions{Filter: true, FilterLo: lo, FilterHi: hi, noConditionFilter: true}

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

// fanOutGate holds the block-batch streams of a fetch in lock step
// with their consumer and counts the frames each holder sends. Gated, a
// holder sends nothing until resume is closed, and then each frame
// only once the consumer has taken the one before; a consumer that has
// closed the stream fails the holder's next send. The consumer's
// transport marks a stream taken and closed (gateClient), each
// holder's marks what it sends (gateServer).
type fanOutGate struct {
	gated  atomic.Bool
	resume chan struct{}

	mu     sync.Mutex
	links  map[string]*gateLink // the consumer's open stream to each holder
	frames map[string]int       // frames sent, by holder
}

// gateLink is one holder stream as its two ends see it.
type gateLink struct {
	taken     chan struct{} // the consumer received a frame
	closed    chan struct{} // the consumer closed the stream
	served    chan struct{} // the holder is done with the stream
	closeOnce sync.Once
}

func (g *fanOutGate) link(holder string) *gateLink {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.links[holder]
}

// served waits until the holder of every stream opened so far is done
// with it.
func (g *fanOutGate) served() {
	g.mu.Lock()
	links := make([]*gateLink, 0, len(g.links))
	for _, l := range g.links {
		links = append(links, l)
	}
	g.mu.Unlock()
	for _, l := range links {
		<-l.served
	}
}

// take returns the frames sent by holder since the last take, and
// starts the count again.
func (g *fanOutGate) take() map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.frames
	g.frames = map[string]int{}
	return out
}

type gateClient struct {
	dht.Transport
	g *fanOutGate
}

func (c gateClient) OpenStream(ctx context.Context, to dht.Contact, req dht.Message) (dht.MsgStream, error) {
	if req.Type != dht.MsgGetBatch || !c.g.gated.Load() {
		return c.Transport.OpenStream(ctx, to, req)
	}
	l := &gateLink{taken: make(chan struct{}, 1), closed: make(chan struct{}), served: make(chan struct{})}
	c.g.mu.Lock()
	c.g.links[to.Addr] = l
	c.g.mu.Unlock()
	ms, err := c.Transport.OpenStream(ctx, to, req)
	if err != nil {
		close(l.served) // the request never reached the holder
		return nil, err
	}
	return gateStream{ms, l}, nil
}

type gateStream struct {
	dht.MsgStream
	l *gateLink
}

func (s gateStream) Recv() (dht.Message, error) {
	m, err := s.MsgStream.Recv()
	if err == nil {
		s.l.taken <- struct{}{}
	}
	return m, err
}

func (s gateStream) Close() {
	s.l.closeOnce.Do(func() { close(s.l.closed) })
	s.MsgStream.Close()
}

type gateServer struct {
	dht.Transport
	g *fanOutGate
}

func (t gateServer) Serve(h dht.Handler) error {
	return t.Transport.Serve(gateHandler{h, t.g, t.Addr()})
}

type gateHandler struct {
	dht.Handler
	g    *fanOutGate
	self string
}

func (h gateHandler) HandleStream(from dht.Contact, req dht.Message, send func(dht.Message) error) error {
	if req.Type != dht.MsgGetBatch {
		return h.Handler.HandleStream(from, req, send)
	}
	l := h.g.link(h.self) // set only for the gated consumer's streams
	gated := l != nil
	if gated {
		defer close(l.served)
	}
	return h.Handler.HandleStream(from, req, func(m dht.Message) error {
		if gated {
			<-h.g.resume
			select {
			case <-l.closed:
				return errors.New("consumer closed the stream")
			default:
			}
		}
		// Counted before the send, so a consumer that has drained the
		// stream has seen every frame counted.
		h.g.mu.Lock()
		h.g.frames[h.self]++
		h.g.mu.Unlock()
		if err := send(m); err != nil {
			return err
		}
		if gated {
			select {
			case <-l.taken:
			case <-l.closed:
			}
		}
		return nil
	})
}

// widePostings is one posting per document, each 13 bytes encoded, so
// a holder's share of a list spans several packed frames.
func widePostings(n int) postings.List {
	l := make(postings.List, n)
	for i := range l {
		l[i] = sid.Posting{Peer: 1, Doc: sid.DocID(i), SID: sid.SID{Start: 1 << 30, End: 1 << 31, Level: 7}}
	}
	return l
}

// TestFetchCancelsFanOutOnError pins that a failed block ends the whole
// fetch: once the error has surfaced at the consumer, the holder
// streams, all opened at once, are abandoned. The holder of the most
// blocks rejects every read; it starts first (largest holder first),
// and the root is cut to begin at its first block, so that block fails
// first, after one failover. The other
// holders' streams are held before their first frame until the error
// has reached the consumer; then each may send the frame its consumer
// is handed and one more before the consumer closes the stream. The
// consumer joins after the publish, so it holds no block and every
// block crosses a gated stream.
func TestFetchCancelsFanOutOnError(t *testing.T) {
	g := &fanOutGate{resume: make(chan struct{}), links: map[string]*gateLink{}, frames: map[string]int{}}
	opts := Options{BlockSize: 1000}
	c := newClusterOn(t, 4, opts, func(_ int, tr dht.Transport) dht.Transport { return gateServer{tr, g} })
	if err := c.managers[0].Append(context.Background(), "l:author", widePostings(150000), ""); err != nil {
		t.Fatal(err)
	}
	full, err := c.managers[0].Root(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	node, err := dht.NewNode(gateClient{c.net.NewEndpoint(), g}, store.NewMem(), dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	if err := node.Bootstrap(c.nodes[0].Self()); err != nil {
		t.Fatal(err)
	}
	consumer, err := NewManager(node, opts)
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
	fetch := func() error {
		s, _, err := consumer.FetchWithRoot(context.Background(), &root, FetchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = postings.Drain(s)
		return err
	}
	if err := fetch(); err != nil {
		t.Fatal(err)
	}
	whole, wholeFrames := g.take(), 0
	for addr := range holders(&root) {
		if addr != victim && whole[addr] < 3 {
			t.Fatalf("holder %s sends %d frames, want 3 or more for the bound below to mean anything", addr, whole[addr])
		}
		wholeFrames += whole[addr]
	}

	for _, nd := range c.nodes {
		if nd.Self().Addr == victim {
			nd.SetShedGate(shutGate{})
		}
	}
	g.gated.Store(true)
	if err := fetch(); err == nil || !dht.IsOverload(err) {
		t.Fatalf("drain error = %v, want the first holder's overload rejection", err)
	}
	if moved := g.take(); len(moved) != 0 {
		t.Fatalf("frames %v moved before the error surfaced", moved)
	}
	close(g.resume)
	g.served()
	sent, total := g.take(), 0
	t.Logf("frames by holder: %v in the whole fetch, %v after the error surfaced", whole, sent)
	for addr, n := range sent {
		if n > 2 {
			t.Errorf("holder %s sent %d frames after the error surfaced, more than the one its consumer was handed and one more", addr, n)
		}
		total += n
	}
	if total > wholeFrames/2 {
		t.Errorf("failed fetch moved %d of the list's %d frames: the fan-out ran on", total, wholeFrames)
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

// TestReplicaProbesCountFailoverOnly checks what "replica probes"
// counts: a fault-free fetch makes none, though it opens a stream per
// holder; a fetch whose recorded holder is partitioned probes the
// block's advertised replica. Which holder a fetch asks first is the
// seeded power-of-two pick, so several fetches run and at least one
// must have gone to the partitioned holder first.
func TestReplicaProbesCountFailoverOnly(t *testing.T) {
	const term = "l:author"
	c := newClusterWith(t, 8, Options{BlockSize: 16}, dht.Config{Replication: 2}, func(_ int, tr dht.Transport) dht.Transport { return tr })
	home := homeOf(t, c, term)
	want := seqPostings(40, 4) // three blocks
	if err := c.managers[home].Append(context.Background(), term, want, ""); err != nil {
		t.Fatal(err)
	}
	fetch := func(r int, root *Root) cost.Snapshot {
		t.Helper()
		cc := new(cost.Counters)
		s, _, err := c.managers[r].FetchWithRoot(cost.NewContext(context.Background(), cc), root, FetchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := postings.Drain(s); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("fetched %d postings (%v), want %d", len(got), err, len(want))
		}
		return cc.Snapshot()
	}

	// The first block's holder and its other owner; a reader that is
	// neither, nor the home.
	root, err := c.managers[home].Root(context.Background(), term)
	if err != nil {
		t.Fatal(err)
	}
	b := &root.Blocks[0]
	owners, err := c.nodes[home].Owners(context.Background(), b.Key)
	if err != nil || len(owners) != 2 {
		t.Fatalf("owners of %s: %v, %v", b.Key, owners, err)
	}
	other := owners[0].Addr
	if other == b.Owner {
		other = owners[1].Addr
	}
	reader := -1
	for i, n := range c.nodes {
		if a := n.Self().Addr; i != home && a != b.Owner && a != other {
			reader = i
			break
		}
	}
	if got := fetch(reader, root); got.ReplicaProbes != 0 || got.BlocksFetched != int64(len(root.Blocks)) {
		t.Fatalf("fault-free fetch: %d replica probes, %d blocks fetched; want 0 and %d", got.ReplicaProbes, got.BlocksFetched, len(root.Blocks))
	}

	b.Replicas = []string{other}
	c.net.Partition(b.Owner)
	var probes int64
	for range 8 {
		got := fetch(reader, root)
		if got.ReplicaProbes > 1 {
			t.Fatalf("fetch probed %d replicas; the block has one", got.ReplicaProbes)
		}
		probes += got.ReplicaProbes
	}
	if probes == 0 {
		t.Fatal("no fetch probed the replica of a block whose recorded holder is partitioned")
	}
}
