package dpp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kadop/internal/dht"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// cluster is a simulated network of peers, each running a DPP manager.
type cluster struct {
	net      *dht.Network
	nodes    []*dht.Node
	managers []*Manager
}

func newCluster(t testing.TB, peers int, opts Options) *cluster {
	return newClusterOn(t, peers, opts, func(_ int, tr dht.Transport) dht.Transport { return tr })
}

// newClusterOn is newCluster with each peer's transport passed through
// wrap, so a test can observe or break what a peer sends.
func newClusterOn(t testing.TB, peers int, opts Options, wrap func(peer int, tr dht.Transport) dht.Transport) *cluster {
	return newClusterWith(t, peers, opts, dht.Config{}, wrap)
}

// newClusterWith is newClusterOn with every node on the given config.
func newClusterWith(t testing.TB, peers int, opts Options, cfg dht.Config, wrap func(peer int, tr dht.Transport) dht.Transport) *cluster {
	t.Helper()
	c := &cluster{net: dht.NewNetwork()}
	for i := 0; i < peers; i++ {
		node, err := dht.NewNode(wrap(i, c.net.NewEndpoint()), store.NewMem(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
		mgr, err := NewManager(node, opts)
		if err != nil {
			t.Fatal(err)
		}
		c.managers = append(c.managers, mgr)
	}
	for i := 1; i < peers; i++ {
		if err := c.nodes[i].Bootstrap(c.nodes[0].Self()); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.nodes {
		if _, err := n.Lookup(n.Self().ID); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func seqPostings(n int, docsize int) postings.List {
	l := make(postings.List, 0, n)
	for i := 0; i < n; i++ {
		doc := sid.DocID(i / docsize)
		s := uint32(2*(i%docsize) + 1)
		l = append(l, sid.Posting{Peer: 1, Doc: doc, SID: sid.SID{Start: s, End: s + 1, Level: 2}})
	}
	return l
}

func TestInlineListStaysInline(t *testing.T) {
	c := newCluster(t, 8, Options{BlockSize: 100})
	l := seqPostings(50, 10)
	if err := c.managers[0].Append(context.Background(), "l:title", l, ""); err != nil {
		t.Fatal(err)
	}
	root, err := c.managers[3].Root(context.Background(), "l:title")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Blocks) != 0 {
		t.Fatalf("small list should stay inline, got %d blocks", len(root.Blocks))
	}
	s, plan, err := c.managers[3].Fetch("l:title", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Inline {
		t.Error("plan should report inline")
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("inline fetch: %d vs %d", len(got), len(l))
	}
}

func TestOverflowSplitsAndFetchReassembles(t *testing.T) {
	c := newCluster(t, 10, Options{BlockSize: 200})
	want := seqPostings(1500, 20)
	// Append in chunks from several peers, exercising incremental splits.
	for i := 0; i < len(want); i += 120 {
		end := i + 120
		if end > len(want) {
			end = len(want)
		}
		if err := c.managers[i/120%len(c.managers)].Append(context.Background(), "l:author", want[i:end], ""); err != nil {
			t.Fatal(err)
		}
	}
	root, err := c.managers[5].Root(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Blocks) < 4 {
		t.Fatalf("expected several blocks, got %d", len(root.Blocks))
	}
	// Conditions are ordered and sized within bounds.
	total := 0
	for i, b := range root.Blocks {
		if b.Count > 200 {
			t.Errorf("block %d holds %d postings, bound 200", i, b.Count)
		}
		total += b.Count
		if b.Hi.Compare(b.Lo) < 0 {
			t.Errorf("block %d condition inverted", i)
		}
		if i > 0 && root.Blocks[i-1].Hi.Compare(b.Lo) > 0 {
			t.Errorf("blocks %d and %d conditions overlap out of order", i-1, i)
		}
	}
	if total != len(want) {
		t.Fatalf("blocks hold %d postings, want %d", total, len(want))
	}
	// Full fetch reassembles the exact list.
	s, plan, err := c.managers[7].Fetch("l:author", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fetched != len(root.Blocks) {
		t.Errorf("fetched %d of %d blocks without a filter", plan.Fetched, plan.Blocks)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch: %d vs %d postings", len(got), len(want))
	}
}

// TestInterleavedAppendSplitsEarlyBlock appends, in one call, postings
// that interleave with every existing block: the first blocks overflow
// and split mid-walk, and the postings bound for the later blocks must
// still arrive (a batch publish of two document types does exactly
// this to every shared term).
func TestInterleavedAppendSplitsEarlyBlock(t *testing.T) {
	c := newCluster(t, 8, Options{BlockSize: 8})
	all := seqPostings(96, 1)
	var even, odd postings.List
	for i, p := range all {
		if i%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	if err := c.managers[0].Append(context.Background(), "l:author", even, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.managers[1].Append(context.Background(), "l:author", odd, ""); err != nil {
		t.Fatal(err)
	}
	s, _, err := c.managers[5].Fetch("l:author", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("fetched %d postings after the interleaved append, want %d", len(got), len(all))
	}
}

func TestBlocksDistributedAcrossPeers(t *testing.T) {
	c := newCluster(t, 12, Options{BlockSize: 100})
	want := seqPostings(1000, 20)
	if err := c.managers[0].Append(context.Background(), "l:author", want, ""); err != nil {
		t.Fatal(err)
	}
	// Count peers holding at least one overflow key.
	holders := 0
	for _, n := range c.nodes {
		terms, err := n.Store().Terms()
		if err != nil {
			t.Fatal(err)
		}
		for _, term := range terms {
			if len(term) > 9 && term[:9] == "overflow:" {
				holders++
				break
			}
		}
	}
	if holders < 3 {
		t.Fatalf("blocks concentrated on %d peers; partitioning should spread them", holders)
	}
}

func TestDocIntervalFilterSkipsBlocks(t *testing.T) {
	c := newCluster(t, 10, Options{BlockSize: 100})
	want := seqPostings(1000, 10) // docs 0..99
	if err := c.managers[0].Append(context.Background(), "l:author", want, ""); err != nil {
		t.Fatal(err)
	}
	lo := sid.DocKey{Peer: 1, Doc: 40}
	hi := sid.DocKey{Peer: 1, Doc: 49}
	s, plan, err := c.managers[2].Fetch("l:author", FetchOptions{
		Filter: true, FilterLo: lo, FilterHi: hi,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	wantClip := postings.List(want).ClipDocs(lo, hi)
	if !reflect.DeepEqual(got, postings.List(wantClip)) {
		t.Fatalf("clipped fetch: %d vs %d", len(got), len(wantClip))
	}
	if plan.Fetched >= plan.Blocks {
		t.Errorf("condition filter fetched all %d blocks", plan.Blocks)
	}
}

func TestDocIntervalClipWithoutConditionFilter(t *testing.T) {
	c := newCluster(t, 8, Options{BlockSize: 100})
	want := seqPostings(600, 10)
	if err := c.managers[0].Append(context.Background(), "l:x", want, ""); err != nil {
		t.Fatal(err)
	}
	lo := sid.DocKey{Peer: 1, Doc: 10}
	hi := sid.DocKey{Peer: 1, Doc: 19}
	s, plan, err := c.managers[1].Fetch("l:x", FetchOptions{
		Filter: true, FilterLo: lo, FilterHi: hi, noConditionFilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	wantClip := postings.List(want).ClipDocs(lo, hi)
	if !reflect.DeepEqual(got, postings.List(wantClip)) {
		t.Fatalf("clip without condition filter: %d vs %d", len(got), len(wantClip))
	}
	if plan.Fetched != plan.Blocks {
		t.Errorf("ablation should fetch all blocks, fetched %d of %d", plan.Fetched, plan.Blocks)
	}
}

func TestRandomSplitAblation(t *testing.T) {
	c := newCluster(t, 10, Options{BlockSize: 150, RandomSplit: true})
	rng := rand.New(rand.NewSource(1))
	var want postings.List
	for i := 0; i < 900; i++ {
		s := uint32(rng.Intn(5000)*2 + 1)
		want = append(want, sid.Posting{Peer: 1, Doc: sid.DocID(rng.Intn(40)), SID: sid.SID{Start: s, End: s + 1, Level: 1}})
	}
	want.Sort()
	want = want.Dedup()
	for i := 0; i < len(want); i += 200 {
		end := i + 200
		if end > len(want) {
			end = len(want)
		}
		if err := c.managers[0].Append(context.Background(), "l:r", want[i:end], ""); err != nil {
			t.Fatal(err)
		}
	}
	root, err := c.managers[4].Root(context.Background(), "l:r")
	if err != nil {
		t.Fatal(err)
	}
	if root.Ordered {
		t.Fatal("root should be marked unordered")
	}
	if len(root.Blocks) < 2 {
		t.Fatalf("blocks = %d", len(root.Blocks))
	}
	s, _, err := c.managers[4].Fetch("l:r", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("random-split fetch: %d vs %d", len(got), len(want))
	}
}

func TestRootCodecRoundTrip(t *testing.T) {
	r := &Root{
		Term:    "l:author",
		Ordered: true,
		Blocks: []BlockRef{
			{Lo: sid.Posting{Peer: 1, Doc: 2, SID: sid.SID{Start: 3, End: 4, Level: 5}},
				Hi:  sid.Posting{Peer: 6, Doc: 7, SID: sid.SID{Start: 8, End: 9, Level: 10}},
				Key: "overflow:1:l:author", Count: 42},
			{Lo: sid.Posting{Peer: 6, Doc: 8, SID: sid.SID{Start: 1, End: 2, Level: 0}},
				Hi:  sid.Posting{Peer: 9, Doc: 9, SID: sid.SID{Start: 5, End: 6, Level: 1}},
				Key: "overflow:2:l:author", Count: 17},
		},
	}
	got, err := decodeRoot(encodeRoot(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("root round trip:\n got %+v\nwant %+v", got, r)
	}
	enc := encodeRoot(r)
	// Golden bytes: root blocks cross the wire between peers of mixed
	// versions, so the encoding may not drift.
	if want := "086c3a617574686f72010000000000000000000000000000000000000000000000000000000000000000000000000000000002136f766572666c6f773a313a6c3a617574686f720000000001000000020000000300000004000500000006000000070000000800000009000a2a000000136f766572666c6f773a323a6c3a617574686f720000000006000000080000000100000002000000000009000000090000000500000006000111000000"; fmt.Sprintf("%x", enc) != want {
		t.Errorf("root-block wire bytes changed:\n got %x\nwant %s", enc, want)
	}
	for cut := 0; cut < len(enc)-1; cut += 5 {
		if _, err := decodeRoot(enc[:cut]); err == nil {
			t.Fatalf("decodeRoot of %d bytes should fail", cut)
		}
	}
}

func TestFetchUnknownTermIsEmpty(t *testing.T) {
	c := newCluster(t, 5, Options{})
	s, plan, err := c.managers[1].Fetch("l:nothing", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || !plan.Inline {
		t.Fatalf("unknown term: %d postings, plan %+v", len(got), plan)
	}
}

// TestParallelFetchMatchesSerial fetches a list spread over many
// holders, every holder stream in flight at once, and gets the stored
// list back in order.
func TestParallelFetchMatchesSerial(t *testing.T) {
	c := newCluster(t, 10, Options{BlockSize: 64})
	want := seqPostings(2000, 25)
	if err := c.managers[0].Append(context.Background(), "w:xml", want, ""); err != nil {
		t.Fatal(err)
	}
	s, _, err := c.managers[3].Fetch("w:xml", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetched %d postings, want the stored %d in order", len(got), len(want))
	}
}

func TestManyTermsIndependentRoots(t *testing.T) {
	c := newCluster(t, 8, Options{BlockSize: 50})
	for i := 0; i < 5; i++ {
		term := fmt.Sprintf("l:t%d", i)
		if err := c.managers[0].Append(context.Background(), term, seqPostings(120+10*i, 10), ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		term := fmt.Sprintf("l:t%d", i)
		s, _, err := c.managers[2].Fetch(term, FetchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := postings.Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 120+10*i {
			t.Fatalf("%s: %d postings", term, len(got))
		}
	}
}

func TestDeleteReachesBlocks(t *testing.T) {
	c := newCluster(t, 10, Options{BlockSize: 100})
	want := seqPostings(500, 10)
	if err := c.managers[0].Append(context.Background(), "l:author", want, ""); err != nil {
		t.Fatal(err)
	}
	// Delete a slice from the middle (postings that live in blocks).
	victims := want[200:230]
	if err := c.managers[3].Delete(context.Background(), "l:author", victims); err != nil {
		t.Fatal(err)
	}
	s, _, err := c.managers[5].Fetch("l:author", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)-len(victims) {
		t.Fatalf("after delete: %d postings, want %d", len(got), len(want)-len(victims))
	}
	left := map[sid.Posting]bool{}
	for _, p := range got {
		left[p] = true
	}
	for _, v := range victims {
		if left[v] {
			t.Fatalf("deleted posting %v still present", v)
		}
	}
}

func TestDeleteInlineList(t *testing.T) {
	c := newCluster(t, 6, Options{BlockSize: 1000})
	want := seqPostings(50, 10)
	if err := c.managers[0].Append(context.Background(), "l:x", want, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.managers[1].Delete(context.Background(), "l:x", want[:5]); err != nil {
		t.Fatal(err)
	}
	s, _, err := c.managers[2].Fetch("l:x", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 45 {
		t.Fatalf("after inline delete: %d", len(got))
	}
}
