package dht

import (
	"errors"
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
	n.reg.Counter("kadop_shed_total",
		"Reads rejected by the admission gate, by operation.",
		metrics.Label{Key: "op", Value: op}).Add(1)
	n.robust(metrics.EventShed, "shed-read")
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
