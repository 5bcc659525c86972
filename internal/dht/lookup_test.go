package dht

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/store"
)

// failNext wraps a transport: once armed, the next call or stream open
// to victim of the given type fails, after a delay.
type failNext struct {
	Transport

	mu     sync.Mutex
	victim string
	typ    MsgType
	delay  time.Duration
}

func (f *failNext) arm(victim string, typ MsgType, delay time.Duration) {
	f.mu.Lock()
	f.victim, f.typ, f.delay = victim, typ, delay
	f.mu.Unlock()
}

func (f *failNext) fire(to Contact, req Message) bool {
	f.mu.Lock()
	hit := f.victim != "" && to.Addr == f.victim && req.Type == f.typ
	if hit {
		f.victim = ""
	}
	delay := f.delay
	f.mu.Unlock()
	if hit {
		time.Sleep(delay)
	}
	return hit
}

var errInjected = errors.New("injected loss")

func (f *failNext) Call(ctx context.Context, to Contact, req Message) (Message, error) {
	if f.fire(to, req) {
		return Message{}, errInjected
	}
	return f.Transport.Call(ctx, to, req)
}

func (f *failNext) OpenStream(ctx context.Context, to Contact, req Message) (MsgStream, error) {
	if f.fire(to, req) {
		return nil, errInjected
	}
	return f.Transport.OpenStream(ctx, to, req)
}

// joinWrapped adds a node on a failNext transport to a network.
func joinWrapped(t *testing.T, net *Network, seed *Node) (*Node, *failNext) {
	t.Helper()
	tr := &failNext{Transport: net.NewEndpoint()}
	n, err := NewNode(tr, store.NewMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(seed.Self()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Lookup(n.Self().ID); err != nil {
		t.Fatal(err)
	}
	return n, tr
}

// TestLocateAsksFailedOwnerAgain loses the one FIND_NODE a lookup sends
// the key's owner, after the other answers are in: Locate must still
// answer with the owner, not walk past it to the next-closest peer.
func TestLocateAsksFailedOwnerAgain(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 8)
	x, tr := joinWrapped(t, net, nodes[0])
	const key = "l:author"
	owner, err := x.Locate(key)
	if err != nil {
		t.Fatal(err)
	}
	if owner.ID == x.Self().ID {
		t.Skip("the joining node owns the key")
	}
	tr.arm(owner.Addr, MsgFindNode, 20*time.Millisecond)
	got, err := x.Locate(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != owner.ID {
		t.Fatalf("located %s after one lost query to the owner %s", got.Addr, owner.Addr)
	}
}

// TestBatchStreamLossKeepsPeer loses the single-attempt stream open of
// a block batch: the caller fails over by itself, and the peer stays in
// the routing table.
func TestBatchStreamLossKeepsPeer(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 8)
	x, tr := joinWrapped(t, net, nodes[0])
	peer := nodes[3].Self()
	known := func() bool {
		for _, c := range x.table.Closest(peer.ID, 1) {
			if c.ID == peer.ID {
				return true
			}
		}
		return false
	}
	if !known() {
		t.Fatal("setup: the peer is not in the routing table")
	}
	tr.arm(peer.Addr, MsgGetBatch, 0)
	if err := x.GetBatch(context.Background(), peer, BatchGet{Keys: []string{"k"}}, func(int, postings.List) {}); err == nil {
		t.Fatal("the injected loss did not surface")
	}
	if !known() {
		t.Fatal("one lost block-batch stream evicted a live peer")
	}
}

// TestCallReadAtOwner reads a procedure registered with HandleRead
// from every peer of a settled overlay, the owner among them: each gets
// the owner and its reply, and no procedure call leaves any peer — the
// owner answers beside its FIND_NODE reply, or, asked by itself, reads
// locally. A lone peer, which knows no contact, settles on itself and
// reads locally too.
func TestCallReadAtOwner(t *testing.T) {
	ctx := context.Background()
	whoami := func(nd *Node) {
		addr := nd.Self().Addr
		nd.HandleRead("whoami", func(context.Context, Contact, string, []byte) ([]byte, error) {
			return []byte(addr), nil
		})
	}
	net := NewNetwork()
	nodes := buildNetwork(t, net, 8)
	for _, nd := range nodes {
		whoami(nd)
	}
	apps := net.Collector.Hist(metrics.OpRPCApp)
	for _, key := range []string{"l:author", "l:title", "w:xml"} {
		full, err := nodes[0].LookupContext(ctx, KeyID(key))
		if err != nil {
			t.Fatal(err)
		}
		for i, nd := range nodes {
			before := apps.Count()
			at, reply, err := nd.CallRead(ctx, key, "whoami")
			if err != nil {
				t.Fatal(err)
			}
			if at != full[0] || string(reply) != full[0].Addr {
				t.Errorf("peer %d read %q at %v, answered %q; the owner is %v", i, key, at, reply, full[0])
			}
			if n := apps.Count() - before; n != 0 {
				t.Errorf("peer %d read %q with %d procedure calls beside its lookup, want 0", i, key, n)
			}
		}
	}

	lone, err := NewNode(NewNetwork().NewEndpoint(), store.NewMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	whoami(lone)
	at, reply, err := lone.CallRead(ctx, "l:author", "whoami")
	if err != nil || at != lone.Self() || string(reply) != lone.Self().Addr {
		t.Fatalf("lone peer read at %v, answered %q (%v); want itself", at, reply, err)
	}
}
