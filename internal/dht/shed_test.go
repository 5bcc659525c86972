package dht

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"kadop/internal/metrics"
	"kadop/internal/postings"
)

// denyGate is a hand-driven ShedGate: the test flips it instead of
// waiting out a token bucket (the bucket itself is pinned in the
// replicate package; here the subject is the wiring through the node).
type denyGate struct{ allow atomic.Bool }

func (g *denyGate) Allow() bool    { return g.allow.Load() }
func (g *denyGate) Shedding() bool { return !g.allow.Load() }

// keyOwnedBy finds a key whose single owner is node b, as located by a.
func keyOwnedBy(t *testing.T, a, b *Node) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("l:term%04d", i)
		o, err := a.Locate(k)
		if err != nil {
			t.Fatal(err)
		}
		if o.ID == b.Self().ID {
			return k
		}
	}
	t.Fatal("no key owned by b in 1000 candidates")
	return ""
}

// TestShedGateEndToEnd drives the admission gate through the real RPC
// path: an admitted read serves and piggybacks the owner's load gauge
// onto the response; a denied read comes back as a retryable overload
// error on both the unary and the streaming path, counts the shed
// event, and piggybacks the shedding flag so the reader's replica
// selection learns to avoid the peer.
func TestShedGateEndToEnd(t *testing.T) {
	net := NewNetwork()
	nodes := buildNetwork(t, net, 2)
	a, b := nodes[0], nodes[1]
	key := keyOwnedBy(t, a, b)

	rng := rand.New(rand.NewSource(9))
	want := randomPostings(rng, 80)
	if err := a.Append(context.Background(), key, want); err != nil {
		t.Fatal(err)
	}

	gate := &denyGate{}
	gate.allow.Store(true)
	b.SetShedGate(gate)

	got, err := a.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("admitted read: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("admitted read returned %d postings, want %d", len(got), len(want))
	}
	load, shed, known := a.PeerGauge(b.Self().Addr)
	if !known {
		t.Fatal("no gauge piggybacked on the admitted response")
	}
	if shed {
		t.Fatal("gauge reports shedding while the gate admits")
	}
	if load <= 0 {
		t.Fatalf("gauge load %d after serving %d postings, want > 0", load, len(want))
	}

	gate.allow.Store(false)
	if _, err := a.Get(context.Background(), key); !IsOverload(err) {
		t.Fatalf("denied unary read: err %v, want overload", err)
	}
	s, err := a.GetStream(context.Background(), key)
	if err == nil {
		_, err = postings.Drain(s)
	}
	if !IsOverload(err) {
		t.Fatalf("denied stream read: err %v, want overload", err)
	}
	if _, shed, known := a.PeerGauge(b.Self().Addr); !known || !shed {
		t.Fatalf("rejection did not piggyback the shedding flag (known=%v shed=%v)", known, shed)
	}
	if n := net.Collector.Events(metrics.EventShed); n < 2 {
		t.Fatalf("shed events: %d, want >= 2", n)
	}

	// Writes are not reads: the gate must not shed appends or repair.
	if err := a.Append(context.Background(), key, randomPostings(rng, 5)); err != nil {
		t.Fatalf("append through a shedding peer: %v", err)
	}

	gate.allow.Store(true)
	if _, err := a.Get(context.Background(), key); err != nil {
		t.Fatalf("read after the gate reopened: %v", err)
	}
}
