package dht

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kadop/internal/postings"
	"kadop/internal/store"
)

// TestLookupSurvivesChurn kills a third of the network and checks that
// lookups from the survivors still converge (on possibly new owners)
// and that routing tables shed the dead contacts along the way.
func TestLookupSurvivesChurn(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 30)
	rng := rand.New(rand.NewSource(1))

	// Kill 10 random peers.
	dead := map[int]bool{}
	for len(dead) < 10 {
		i := rng.Intn(len(nodes))
		if i == 0 {
			continue // keep the bootstrap alive for clarity
		}
		if !dead[i] {
			dead[i] = true
			net.Partition(nodes[i].Self().Addr)
		}
	}
	alive := func() []*Node {
		var out []*Node
		for i, nd := range nodes {
			if !dead[i] {
				out = append(out, nd)
			}
		}
		return out
	}()

	for _, key := range []string{"l:author", "w:xml", "l:title"} {
		target := KeyID(key)
		// Ground truth among survivors.
		best := alive[0]
		for _, nd := range alive {
			if nd.Self().ID.XOR(target).Less(best.Self().ID.XOR(target)) {
				best = nd
			}
		}
		for _, nd := range alive {
			owner, err := nd.Locate(key)
			if err != nil {
				t.Fatalf("locate %q after churn: %v", key, err)
			}
			if owner.ID != best.Self().ID {
				t.Fatalf("locate %q: got %s, want %s", key, owner, best.Self())
			}
		}
	}
}

// TestStoreOpsAfterChurn checks append/get keep working for keys whose
// previous owner died: the new closest peer takes over (fresh writes;
// data held only by the dead peer is gone, as in a replication-factor-1
// deployment).
func TestStoreOpsAfterChurn(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 20)
	owner, err := nodes[3].Locate("l:author")
	if err != nil {
		t.Fatal(err)
	}
	net.Partition(owner.Addr)

	l := randomPostings(rand.New(rand.NewSource(2)), 50)
	if err := nodes[3].Append(context.Background(), "l:author", l); err != nil {
		t.Fatalf("append after owner death: %v", err)
	}
	got, err := nodes[7].Get(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(l) {
		t.Fatalf("get after re-homing: %d postings, want %d", len(got), len(l))
	}
}

// TestConcurrentAppendsAndGets hammers one key from many goroutines;
// with the store's locking every appended posting must be retrievable
// afterwards.
func TestConcurrentAppendsAndGets(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 10)
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 20
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				l := randomPostings(rng, 5)
				if err := nodes[w%len(nodes)].Append(context.Background(), fmt.Sprintf("l:t%d", w%3), l); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if _, err := nodes[(w+1)%len(nodes)].Get(context.Background(), fmt.Sprintf("l:t%d", (w+1)%3)); err != nil {
					t.Errorf("worker %d get: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// All lists are intact and sorted.
	for i := 0; i < 3; i++ {
		l, err := nodes[0].Get(context.Background(), fmt.Sprintf("l:t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("list %d corrupted: %v", i, err)
		}
	}
}

// TestStreamConsumerAbandons opens a pipelined stream over a long list
// and drops it after a few postings; the producer must notice and stop
// rather than leak or block forever.
func TestStreamConsumerAbandons(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 6)
	big := make(postings.List, 20000)
	for i := range big {
		s := uint32(2*i + 1)
		big[i].Peer = 1
		big[i].Doc = 1
		big[i].SID.Start = s
		big[i].SID.End = s + 1
	}
	if err := nodes[0].Append(context.Background(), "l:big", big); err != nil {
		t.Fatal(err)
	}
	s, err := nodes[2].GetStream(context.Background(), "l:big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatalf("posting %d: %v", i, err)
		}
	}
	// Abandon: close the receiving pipe; the sender-side goroutine must
	// unblock via the pipe's closed state.
	if p, ok := s.(*postings.Pipe); ok {
		p.Close(nil)
	}
	// The test passes if nothing deadlocks and the network keeps working.
	if _, err := nodes[3].Get(context.Background(), "l:big"); err != nil {
		t.Fatal(err)
	}
}

// TestClientNodeInvisible checks client mode: a client can look up,
// fetch and append through the overlay, but never appears in any
// routing table and never owns a key.
func TestClientNodeInvisible(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 12)
	client, err := NewNode(net.NewEndpoint(), store.NewMem(), Config{Client: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Bootstrap(nodes[0].Self()); err != nil {
		t.Fatal(err)
	}
	l := randomPostings(rand.New(rand.NewSource(3)), 40)
	if err := client.Append(context.Background(), "l:author", l); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(context.Background(), "l:author")
	if err != nil || len(got) != len(l) {
		t.Fatalf("client get: %d (%v)", len(got), err)
	}
	// The client never stored anything locally (it is not an owner).
	if n, _ := client.Store().Count("l:author"); n != 0 {
		t.Fatalf("client stored %d postings locally", n)
	}
	// No full peer knows the client.
	for i, nd := range nodes {
		for _, c := range nd.Table().Closest(client.Self().ID, 100) {
			if c.ID == client.Self().ID {
				t.Fatalf("peer %d learned the client's contact", i)
			}
		}
	}
	// Locates from the client agree with a full peer's.
	a, err := client.Locate("l:author")
	if err != nil {
		t.Fatal(err)
	}
	b, err := nodes[5].Locate("l:author")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("client located %s, full peer %s", a, b)
	}
}
