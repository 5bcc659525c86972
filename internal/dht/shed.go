package dht

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"kadop/internal/metrics"
)

// ErrOverload is the retryable rejection the admission gate answers
// over-budget reads with. Clients treat it as "this replica is busy,
// try another", not as data loss: remote occurrences arrive wrapped in
// the transport's error strings, so detection goes through IsOverload
// rather than errors.Is.
var ErrOverload = errors.New("overload: read shed by admission gate")

// IsOverload reports whether an error (local or a remote MsgError
// round-tripped through the transport as text) is an admission-gate
// rejection.
func IsOverload(err error) bool {
	return err != nil && strings.Contains(err.Error(), "overload:")
}

// ShedGate is the admission-control hook of the serve path. The
// replicate package's token bucket implements it; the dht layer only
// asks two questions, so it does not import the controller. Both
// methods must be safe for concurrent use. A nil gate admits all.
type ShedGate interface {
	// Allow spends one admission token; false rejects the read.
	Allow() bool
	// Shedding reports whether the gate would currently reject,
	// without spending a token (piggybacked on responses).
	Shedding() bool
}

// SetShedGate installs the admission gate on this node's read-serving
// path (MsgGet, posting streams, batched block fetches). Safe to call
// once at peer construction, before traffic.
func (n *Node) SetShedGate(g ShedGate) {
	n.gate.Store(&g)
}

func (n *Node) shedGate() ShedGate {
	if p := n.gate.Load(); p != nil {
		return *p
	}
	return nil
}

// admitRead consults the gate for one read-class request and accounts
// a rejection (kadop_shed_total, the shed-reads robustness event, and
// a flight-ring entry via robust).
func (n *Node) admitRead(op string) error {
	g := n.shedGate()
	if g == nil || g.Allow() {
		return nil
	}
	n.collector.CountEvent(metrics.EventShed)
	n.reg.Counter("kadop_shed_total",
		"Reads rejected by the admission gate, by operation.",
		metrics.Label{Key: "op", Value: op}).Add(1)
	n.robust("shed-read")
	return ErrOverload
}

// stampGauge attaches this peer's recent-load reading and shed state
// to an outgoing response, so every answered request doubles as a load
// advertisement for replica selection.
func (n *Node) stampGauge(m Message) Message {
	m.Gauge = 1 + uint64(n.load.RecentBytes())
	if g := n.shedGate(); g != nil && g.Shedding() {
		m.Shed = true
	}
	return m
}

// peerGauge is one remembered load advertisement.
type peerGauge struct {
	load int64
	shed bool
}

// gaugeCache remembers the last piggybacked gauge per remote address.
type gaugeCache struct {
	mu sync.RWMutex
	m  map[string]peerGauge
}

// noteGauge records a piggybacked advertisement from addr.
func (n *Node) noteGauge(addr string, m Message) {
	if m.Gauge == 0 || addr == "" {
		return
	}
	g := peerGauge{load: int64(m.Gauge - 1), shed: m.Shed}
	n.gauges.mu.Lock()
	if n.gauges.m == nil {
		n.gauges.m = map[string]peerGauge{}
	}
	n.gauges.m[addr] = g
	n.gauges.mu.Unlock()
}

// PeerGauge returns the last load advertisement seen from addr: the
// peer's recent bytes served, whether it reported shedding, and
// whether any reading is known at all.
func (n *Node) PeerGauge(addr string) (load int64, shed bool, known bool) {
	n.gauges.mu.RLock()
	g, ok := n.gauges.m[addr]
	n.gauges.mu.RUnlock()
	return g.load, g.shed, ok
}

// adaptive replication primitives ------------------------------------

// ReplicaTargetsContext returns up to extra peers just outside key's
// owner set, in XOR-closeness order: the natural hosts for promoted
// copies of a hot key (deterministic across peers, excludes self and
// the Replication owners that already hold it).
func (n *Node) ReplicaTargetsContext(ctx context.Context, key string, extra int) ([]Contact, error) {
	if extra <= 0 {
		return nil, nil
	}
	cs, err := n.LookupContext(ctx, KeyID(key))
	if err != nil {
		return nil, err
	}
	if len(cs) <= n.cfg.Replication {
		return nil, nil
	}
	var out []Contact
	for _, c := range cs[n.cfg.Replication:] {
		if c.ID == n.self.ID {
			continue
		}
		out = append(out, c)
		if len(out) == extra {
			break
		}
	}
	return out, nil
}

// RepairPushContext pushes the local copy of key to one specific peer
// unless its digest says it is already current — the same idempotent
// MsgRepair push the repair loop and graceful leave use, here driven
// by the replication controller promoting a hot key. Reports whether a
// copy was actually shipped.
func (n *Node) RepairPushContext(ctx context.Context, to Contact, key string) (bool, error) {
	if to.ID == n.self.ID {
		return false, nil
	}
	local, err := n.store.Count(key)
	if err != nil || local == 0 {
		return false, err
	}
	if remote, err := n.digestOf(ctx, to, key); err == nil && remote >= local {
		return false, nil
	}
	// Read past the load instrumentation: a replication push is supply,
	// not demand. Charging it to the hot-term sketch would make every
	// promotion self-sustaining — the renewal push re-heats the very
	// term it replicates and the controller never demotes.
	list, err := n.rawStore.Get(key)
	if err != nil {
		return false, err
	}
	if _, err := n.call(ctx, to, Message{Type: MsgRepair, From: n.from(), Key: key, Postings: list}); err != nil {
		return false, fmt.Errorf("dht: replica push %q to %s: %w", key, to.Addr, err)
	}
	n.collector.CountEvent(metrics.EventRepair)
	n.robust("replica-push")
	return true, nil
}

// DeleteKeyAtContext removes key's list on one specific peer — the
// demotion half of adaptive replication, dropping an expired promoted
// copy. Callers must check the target is not a current owner first.
func (n *Node) DeleteKeyAtContext(ctx context.Context, to Contact, key string) error {
	if to.ID == n.self.ID {
		return n.store.DeleteTerm(key)
	}
	_, err := n.call(ctx, to, Message{Type: MsgDeleteKey, From: n.from(), Key: key})
	return err
}
