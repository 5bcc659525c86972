package dpp

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"kadop/internal/dht"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// homeOf is the index of the peer that is home for term.
func homeOf(t *testing.T, c *cluster, term string) int {
	t.Helper()
	owner, err := c.nodes[0].Locate(term)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range c.nodes {
		if nd.Self().ID == owner.ID {
			return i
		}
	}
	t.Fatalf("home of %q is not a cluster peer", term)
	return -1
}

// drainWithRoot fetches the term from peer at through a root it already
// holds, and drains the stream.
func drainWithRoot(t *testing.T, c *cluster, at int, root *Root) postings.List {
	t.Helper()
	s, _, err := c.managers[at].FetchWithRoot(context.Background(), root, FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// splitFirstBlock appends even SIDs into the first block of stale, a
// root of term, until that block has split, and returns every posting
// of the term.
func splitFirstBlock(t *testing.T, c *cluster, term string, stale *Root, all postings.List) postings.List {
	t.Helper()
	first := stale.Blocks[0]
	for start := uint32(2); ; start += 2 {
		// An even SID inside the first block's range.
		p := sid.Posting{Peer: 1, Doc: first.Lo.Doc, SID: sid.SID{Start: start, End: start + 1, Level: 2}}
		if err := c.managers[1].Append(context.Background(), term, postings.List{p}, ""); err != nil {
			t.Fatal(err)
		}
		all = postings.MergeUnique(all, postings.List{p})
		cur, err := c.managers[5].Root(context.Background(), term)
		if err != nil {
			t.Fatal(err)
		}
		if _, named := cur.ref(first.Key); !named {
			return all
		}
		if start > 2*uint32(c.managers[0].blockSize) {
			t.Fatal("the first block never split")
		}
	}
}

// splitCluster is a cluster holding term in four full blocks, a root of
// the term taken then, and the term's postings after the first of those
// blocks split.
func splitCluster(t *testing.T, term string) (*cluster, *Root, postings.List) {
	c := newCluster(t, 8, Options{BlockSize: 16})
	want := seqPostings(64, 4) // four full blocks, odd SIDs
	if err := c.managers[0].Append(context.Background(), term, want, ""); err != nil {
		t.Fatal(err)
	}
	stale, err := c.managers[5].Root(context.Background(), term)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale.Blocks) < 2 {
		t.Fatalf("want several blocks, got %d", len(stale.Blocks))
	}
	return c, stale, splitFirstBlock(t, c, term, stale, want)
}

// TestStaleRootAcrossSplit fetches with a root taken before one of its
// blocks split: the split retired the block's key, and every posting the
// stale root counted must still come back (with the posting appended
// into the block's range since).
func TestStaleRootAcrossSplit(t *testing.T) {
	c, stale, all := splitCluster(t, "l:author")
	if got := drainWithRoot(t, c, 5, stale); !reflect.DeepEqual(got, all) {
		t.Fatalf("fetch with the pre-split root returned %d postings, want %d", len(got), len(all))
	}
}

// TestStaleRootFromStaleHome is TestStaleRootAcrossSplit with the root
// served by a peer that is no longer the term's home (it never held the
// term): the refetch must go on to the located home.
func TestStaleRootFromStaleHome(t *testing.T) {
	c, stale, all := splitCluster(t, "l:author")
	home := homeOf(t, c, "l:author")
	other := c.nodes[(home+1)%len(c.nodes)].Self().Addr
	if other == stale.Blocks[0].Owner {
		other = c.nodes[(home+2)%len(c.nodes)].Self().Addr
	}
	stale.Home = other
	if got := drainWithRoot(t, c, 5, stale); !reflect.DeepEqual(got, all) {
		t.Fatalf("fetch with a root from a stale home returned %d postings, want %d", len(got), len(all))
	}
}

// TestStaleRootAcrossOverflow fetches with the root of a list still
// inline, after the list overflowed into blocks and its inline copy was
// retired: the postings the inline root counted must all come back.
func TestStaleRootAcrossOverflow(t *testing.T) {
	c := newCluster(t, 8, Options{BlockSize: 32})
	all := seqPostings(48, 4)
	if err := c.managers[0].Append(context.Background(), "l:title", all[:24], ""); err != nil {
		t.Fatal(err)
	}
	stale, err := c.managers[5].Root(context.Background(), "l:title")
	if err != nil {
		t.Fatal(err)
	}
	if len(stale.Blocks) != 0 || stale.Count != 24 {
		t.Fatalf("want an inline root of 24 postings, got %d blocks, count %d", len(stale.Blocks), stale.Count)
	}
	if err := c.managers[1].Append(context.Background(), "l:title", all[24:], ""); err != nil {
		t.Fatal(err)
	}
	if cur, err := c.managers[5].Root(context.Background(), "l:title"); err != nil || len(cur.Blocks) == 0 {
		t.Fatalf("the list did not overflow: %v", err)
	}
	if got := drainWithRoot(t, c, 5, stale); !reflect.DeepEqual(got, all[:24]) {
		t.Fatalf("fetch with the inline root returned %d postings, want %d", len(got), 24)
	}
}

// partitionOnPlace wraps the transport of a term's home: once armed, it
// partitions the first peer a block write is sent to that holds none of
// spare's blocks — that peer crashes between being located as a new
// piece's owner and receiving the piece.
type partitionOnPlace struct {
	dht.Transport
	net *dht.Network

	mu     sync.Mutex
	armed  bool
	spare  []string
	victim string
}

func (p *partitionOnPlace) Call(ctx context.Context, to dht.Contact, req dht.Message) (dht.Message, error) {
	p.mu.Lock()
	if p.armed && req.Type == dht.MsgAppend && !slices.Contains(p.spare, to.Addr) {
		p.armed, p.victim = false, to.Addr
		p.net.Partition(to.Addr)
	}
	p.mu.Unlock()
	return p.Transport.Call(ctx, to, req)
}

// TestFailedPlacementPublishesNothing makes the owner of a new piece
// unreachable in the middle of an overflow and of a split: the append
// fails, and the root served and the postings fetched afterwards are
// exactly those from before it.
func TestFailedPlacementPublishesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		base int // postings before the failing append; BlockSize is 16
	}{
		{"overflow", 16},
		{"split", 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A term some of whose new pieces are owned by a peer
			// outside the spared set (the setup check below says so if
			// placement changes).
			const term = "l:year"
			wraps := map[int]*partitionOnPlace{}
			c := newClusterOn(t, 8, Options{BlockSize: 16}, func(i int, tr dht.Transport) dht.Transport {
				wraps[i] = &partitionOnPlace{Transport: tr}
				return wraps[i]
			})
			home := homeOf(t, c, term)
			reader := (home + 1) % len(c.nodes)
			want := seqPostings(tc.base, 4)
			if err := c.managers[home].Append(context.Background(), term, want, ""); err != nil {
				t.Fatal(err)
			}
			before, err := c.managers[reader].Root(context.Background(), term)
			if err != nil {
				t.Fatal(err)
			}
			w := wraps[home]
			w.net, w.armed = c.net, true
			w.spare = []string{c.nodes[home].Self().Addr, c.nodes[reader].Self().Addr}
			for _, b := range before.Blocks {
				w.spare = append(w.spare, b.Owner)
			}

			// Even SIDs of the first document: inside the first block.
			extra := postings.List{
				{Peer: 1, Doc: 0, SID: sid.SID{Start: 2, End: 3, Level: 2}},
				{Peer: 1, Doc: 0, SID: sid.SID{Start: 4, End: 5, Level: 2}},
			}
			if err := c.managers[reader].Append(context.Background(), term, extra, ""); err == nil {
				t.Fatalf("append succeeded though a piece's owner was unreachable (victim %q)", w.victim)
			}
			if w.victim == "" {
				t.Fatal("setup: no piece was sent to a peer outside the spared set")
			}
			after, err := c.managers[reader].Root(context.Background(), term)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("served root changed by a failed append:\nbefore %+v\n after %+v", before, after)
			}
			s, _, err := c.managers[reader].Fetch(term, FetchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := postings.Drain(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fetch after a failed append: %d postings, want the %d from before it", len(got), len(want))
			}
		})
	}
}

// TestAppendSurvivesLostHolder partitions the holder of a term's last
// block, with Replication 2 and the block repaired to its second owner,
// then publishes into that block: the append succeeds, and a fetch
// returns every posting, old and new.
func TestAppendSurvivesLostHolder(t *testing.T) {
	ctx := context.Background()
	c := newClusterWith(t, 8, Options{BlockSize: 16}, dht.Config{Replication: 2}, func(_ int, tr dht.Transport) dht.Transport { return tr })
	// A term whose last block is not held at its home (so the home, which
	// routes the append, stays up).
	var term string
	var home int
	var holder string
	base := seqPostings(40, 4) // three blocks: 14, 14, 12
	for i := 0; term == ""; i++ {
		if i == 20 {
			t.Fatal("setup: every term's last block is held at its home")
		}
		cand := fmt.Sprintf("l:t%d", i)
		if err := c.managers[0].Append(ctx, cand, base, ""); err != nil {
			t.Fatal(err)
		}
		root, err := c.managers[0].Root(ctx, cand)
		if err != nil {
			t.Fatal(err)
		}
		if len(root.Blocks) != 3 {
			t.Fatalf("setup: %d blocks, want 3", len(root.Blocks))
		}
		home = homeOf(t, c, cand)
		if last := root.Blocks[2]; last.Owner != c.nodes[home].Self().Addr {
			term, holder = cand, last.Owner
		}
	}
	for _, nd := range c.nodes {
		if _, err := nd.RepairOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Partition(holder)
	reader := -1
	for i, nd := range c.nodes {
		if i != home && nd.Self().Addr != holder {
			reader = i
			break
		}
	}
	extra := postings.List{
		{Peer: 1, Doc: 20, SID: sid.SID{Start: 1, End: 2, Level: 2}},
		{Peer: 1, Doc: 21, SID: sid.SID{Start: 1, End: 2, Level: 2}},
	}
	if err := c.managers[reader].Append(ctx, term, extra, ""); err != nil {
		t.Fatalf("append into the block of a lost holder: %v", err)
	}
	root, err := c.managers[reader].Root(ctx, term)
	if err != nil {
		t.Fatal(err)
	}
	if last := root.Blocks[len(root.Blocks)-1]; last.Owner == holder {
		t.Fatalf("the last block still names the lost holder %s", holder)
	}
	s, _, err := c.managers[reader].Fetch(term, FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := postings.MergeUnique(base, extra); !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch after the holder was lost: %d postings, want %d", len(got), len(want))
	}
}

// TestRootReadSettlesPastStaleHome reads a root through a client whose
// lookup asks three peers at once. None of them knows another, so each
// believes it is the term's home and answers the root read beside its
// FIND_NODE reply; only the closest holds the term. The root must be
// that peer's, the reply of the contact the lookup settles on, whether
// the client takes the answers in arrival order or not: slow links put
// the home's answer after one stale peer's and before the other's.
func TestRootReadSettlesPastStaleHome(t *testing.T) {
	const term = "l:stale"
	ctx := context.Background()
	net := dht.NewNetwork()
	var nodes []*dht.Node
	var managers []*Manager
	for range 6 { // not bootstrapped: every table is empty
		nd, err := dht.NewNode(net.NewEndpoint(), store.NewMem(), dht.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		m, err := NewManager(nd, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nodes, managers = append(nodes, nd), append(managers, m)
	}
	target := dht.KeyID(term)
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if nodes[a].Self().ID.XOR(target).Less(nodes[b].Self().ID.XOR(target)) {
			return -1
		}
		return 1
	})
	home, near, far := nodes[order[0]], nodes[order[1]], nodes[order[2]]
	want := seqPostings(40, 4)
	if err := managers[order[0]].Append(ctx, term, want, ""); err != nil {
		t.Fatal(err)
	}
	net.SetSlow(home.Self().Addr, 5*time.Millisecond)
	net.SetSlow(far.Self().Addr, 20*time.Millisecond)

	client, err := dht.NewNode(net.NewEndpoint(), store.NewMem(), dht.Config{Client: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	for _, nd := range []*dht.Node{far, near, home} {
		client.Table().Update(nd.Self())
	}
	reader, err := NewManager(client, Options{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := reader.Root(ctx, term)
	if err != nil {
		t.Fatal(err)
	}
	if root.Home != home.Self().Addr || root.Postings() != len(want) {
		t.Fatalf("root at %s holds %d postings, want the home %s's %d, not a stale peer's (%s, %s)",
			root.Home, root.Postings(), home.Self().Addr, len(want), near.Self().Addr, far.Self().Addr)
	}
}
