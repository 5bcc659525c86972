package dht

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"kadop/internal/metrics"
)

// Handler serves incoming messages on a peer. The request's type
// decides which method serves it (msgTable's stream flag).
type Handler interface {
	// HandleCall serves a request-response message.
	HandleCall(from Contact, req Message) Message
	// HandleStream serves a streaming request by calling send for each
	// chunk; returning ends the stream (with the error, if non-nil).
	HandleStream(from Contact, req Message, send func(Message) error) error
}

// MsgStream is the consumer side of a streaming response.
type MsgStream interface {
	// Recv returns the next chunk, or io.EOF after the final one.
	Recv() (Message, error)
	// Close abandons the stream early.
	Close()
}

// Transport moves messages between peers. Implementations: the
// in-process simulated network (Network) and the TCP transport. Every
// outgoing operation takes a context carrying the caller's deadline
// budget; implementations abandon the exchange when it expires.
type Transport interface {
	// Addr is this endpoint's address, routable by peers on the same
	// transport.
	Addr() string
	// Call sends a request and waits for the response.
	Call(ctx context.Context, to Contact, req Message) (Message, error)
	// OpenStream sends a request whose response is a chunk stream.
	OpenStream(ctx context.Context, to Contact, req Message) (MsgStream, error)
	// Serve registers the handler for incoming messages and starts
	// serving (non-blocking).
	Serve(h Handler) error
	// Close shuts the endpoint down.
	Close() error
}

// LinkModel describes the simulated network links of the in-process
// transport. The zero value models an infinitely fast network, which is
// what unit tests use; experiments configure Grid5000-like numbers.
type LinkModel struct {
	// Latency is charged once per message.
	Latency time.Duration
	// BytesPerSec throttles each message's transfer time; 0 disables.
	BytesPerSec int64
}

func (lm LinkModel) delay(bytes int) time.Duration {
	d := lm.Latency
	if lm.BytesPerSec > 0 {
		d += time.Duration(int64(bytes) * int64(time.Second) / lm.BytesPerSec)
	}
	return d
}

// Faults injects failures into the simulated network, driven by a
// seeded RNG so chaos runs are reproducible. The zero value injects
// nothing. Drop and duplication apply to request-response calls;
// stream chunks only suffer jitter and slowness, so posting pipelines
// keep their ordering guarantees (a dropped stream peer surfaces as a
// stream error instead).
type Faults struct {
	// Seed drives the fault RNG (0 means 1).
	Seed int64
	// DropProb is the chance, per call, that the request or its
	// response is lost; the caller sees a retryable transport error.
	DropProb float64
	// DupProb is the chance a call's request is delivered twice,
	// exercising handler idempotency (at-least-once delivery).
	DupProb float64
	// JitterMax adds up to this much uniformly-random extra latency to
	// every message.
	JitterMax time.Duration
}

// errDropped is the retryable error surfaced for injected message loss.
var errDropped = errors.New("dht: fault injection dropped message")

// Network is the in-process simulated network: a registry of endpoints
// that exchange encoded messages by direct invocation, charging every
// byte to the Collector and sleeping according to the LinkModel. It
// lets one process host hundreds of KadoP peers, which is how the
// Figure 2/3 experiments run at 200-500 peers. Fault injection (drop,
// duplication, jitter, slow peers) turns it into the chaos harness the
// robustness tests run on.
type Network struct {
	mu        sync.RWMutex
	endpoints map[string]*inprocEndpoint
	Collector *metrics.Collector
	model     LinkModel
	nextAddr  int

	faultMu sync.Mutex
	faults  Faults
	frng    *rand.Rand
	slow    map[string]time.Duration // per-endpoint extra delay per message
}

// NewNetwork returns an empty simulated network.
func NewNetwork() *Network {
	return &Network{endpoints: map[string]*inprocEndpoint{}, Collector: metrics.NewCollector()}
}

// SetModel installs a link model. It is safe to call while traffic is
// in flight; messages charged afterwards use the new model.
func (n *Network) SetModel(m LinkModel) {
	n.mu.Lock()
	n.model = m
	n.mu.Unlock()
}

// Model returns the current link model.
func (n *Network) Model() LinkModel {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.model
}

// SetFaults installs (or, with the zero value, clears) the fault plan.
func (n *Network) SetFaults(f Faults) {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	n.faultMu.Lock()
	n.faults = f
	n.frng = rand.New(rand.NewSource(seed))
	n.faultMu.Unlock()
}

// SetSlow marks an endpoint as a slow peer: every message to or from
// it is delayed by extra on top of the link model. A zero duration
// restores full speed.
func (n *Network) SetSlow(addr string, extra time.Duration) {
	n.faultMu.Lock()
	if n.slow == nil {
		n.slow = map[string]time.Duration{}
	}
	if extra <= 0 {
		delete(n.slow, addr)
	} else {
		n.slow[addr] = extra
	}
	n.faultMu.Unlock()
}

// roll samples the fault plan for one call: whether to drop it,
// whether to duplicate it, and how much jitter to add.
func (n *Network) roll() (drop, dup bool, jitter time.Duration) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	f := n.faults
	if n.frng == nil || (f.DropProb <= 0 && f.DupProb <= 0 && f.JitterMax <= 0) {
		return false, false, 0
	}
	if f.DropProb > 0 && n.frng.Float64() < f.DropProb {
		drop = true
	}
	if f.DupProb > 0 && n.frng.Float64() < f.DupProb {
		dup = true
	}
	if f.JitterMax > 0 {
		jitter = time.Duration(n.frng.Int63n(int64(f.JitterMax)))
	}
	return drop, dup, jitter
}

// slowDelay returns the extra per-message delay of slow endpoints on a
// link.
func (n *Network) slowDelay(addrs ...string) time.Duration {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	var d time.Duration
	for _, a := range addrs {
		d += n.slow[a]
	}
	return d
}

// NewEndpoint creates a transport endpoint with a fresh address.
func (n *Network) NewEndpoint() Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextAddr++
	addr := fmt.Sprintf("sim://%d", n.nextAddr)
	ep := &inprocEndpoint{net: n, addr: addr}
	n.endpoints[addr] = ep
	return ep
}

func (n *Network) lookup(addr string) (*inprocEndpoint, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.endpoints[addr]
	if !ok || ep.closed {
		return nil, fmt.Errorf("dht: no endpoint at %s", addr)
	}
	return ep, nil
}

// Partition removes an endpoint from the network without closing it,
// simulating a peer failure (used by fault-injection tests).
func (n *Network) Partition(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

// charge accounts and delays one message transfer; extra is the
// injected jitter and slow-peer delay for this message. It returns the
// encoding it counted, so a caller that also delivers the message
// decodes these very bytes instead of encoding a second time.
func (n *Network) charge(m Message, extra time.Duration) ([]byte, error) {
	enc, err := m.Encode()
	if err != nil {
		return nil, err
	}
	n.Collector.Count(m.Class(), len(enc))
	if d := n.Model().delay(len(enc)) + extra; d > 0 {
		time.Sleep(d)
	}
	return enc, nil
}

type inprocEndpoint struct {
	net     *Network
	addr    string
	mu      sync.RWMutex
	handler Handler
	closed  bool
}

func (e *inprocEndpoint) Addr() string { return e.addr }

// Metrics exposes the network's collector so the node layer can count
// robustness events (retries, timeouts, evictions) where traffic is
// already accounted.
func (e *inprocEndpoint) Metrics() *metrics.Collector { return e.net.Collector }

func (e *inprocEndpoint) Serve(h Handler) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
	return nil
}

func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.net.Partition(e.addr)
	return nil
}

func (e *inprocEndpoint) getHandler() (Handler, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, fmt.Errorf("dht: endpoint %s closed", e.addr)
	}
	if e.handler == nil {
		return nil, fmt.Errorf("dht: endpoint %s not serving", e.addr)
	}
	return e.handler, nil
}

func (e *inprocEndpoint) Call(ctx context.Context, to Contact, req Message) (Message, error) {
	if err := ctx.Err(); err != nil {
		return Message{}, fmt.Errorf("dht: call %s: %w", to.Addr, err)
	}
	target, err := e.net.lookup(to.Addr)
	if err != nil {
		return Message{}, err
	}
	h, err := target.getHandler()
	if err != nil {
		return Message{}, err
	}
	// The exchange runs in its own goroutine so a slow link or handler
	// cannot hold the caller past its deadline; an abandoned exchange
	// finishes in the background (its sleeps are bounded).
	type outcome struct {
		resp Message
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := e.exchange(to, h, req)
		ch <- outcome{resp: resp, err: err}
	}()
	select {
	case o := <-ch:
		return o.resp, o.err
	case <-ctx.Done():
		return Message{}, fmt.Errorf("dht: call %s: %w", to.Addr, ctx.Err())
	}
}

// exchange performs one request-response delivery with fault
// injection.
func (e *inprocEndpoint) exchange(to Contact, h Handler, req Message) (Message, error) {
	drop, dup, jitter := e.net.roll()
	slow := e.net.slowDelay(e.addr, to.Addr)
	if drop {
		// The bytes left the sender and died on the wire: charge them,
		// wait out the link, and report a retryable loss.
		if _, err := e.net.charge(req, jitter+slow); err != nil {
			return Message{}, err
		}
		return Message{}, fmt.Errorf("dht: call %s: %w", to.Addr, errDropped)
	}
	enc, err := e.net.charge(req, jitter+slow)
	if err != nil {
		return Message{}, err
	}
	// Round-trip through the codec so the handler sees exactly what a
	// remote peer would see (catches any unencodable state early).
	dec, err := DecodeMessage(enc)
	if err != nil {
		return Message{}, err
	}
	resp := h.HandleCall(dec.From, dec)
	if dup {
		// At-least-once delivery: the handler sees the request twice and
		// must be idempotent; the duplicate's bytes are charged too.
		if _, err := e.net.charge(req, 0); err != nil {
			return Message{}, err
		}
		resp = h.HandleCall(dec.From, dec)
	}
	if _, err := e.net.charge(resp, slow); err != nil {
		return Message{}, err
	}
	if resp.Type == MsgError {
		return resp, Terminal(fmt.Errorf("dht: remote %s: %s", to.Addr, resp.Err))
	}
	return resp, nil
}

func (e *inprocEndpoint) OpenStream(ctx context.Context, to Contact, req Message) (MsgStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dht: stream %s: %w", to.Addr, err)
	}
	target, err := e.net.lookup(to.Addr)
	if err != nil {
		return nil, err
	}
	h, err := target.getHandler()
	if err != nil {
		return nil, err
	}
	drop, _, jitter := e.net.roll()
	slow := e.net.slowDelay(e.addr, to.Addr)
	if drop {
		if _, err := e.net.charge(req, jitter+slow); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("dht: stream %s: %w", to.Addr, errDropped)
	}
	if _, err := e.net.charge(req, jitter+slow); err != nil {
		return nil, err
	}
	st := &inprocStream{ch: make(chan Message, 8), done: make(chan struct{})}
	go func() {
		err := h.HandleStream(req.From, req, func(chunk Message) error {
			// Round-trip through the codec: accounts the bytes and gives
			// the consumer its own copy, exactly like a real network
			// (producers reuse their chunk buffers between sends).
			enc, cerr := chunk.Encode()
			if cerr != nil {
				return cerr
			}
			e.net.Collector.Count(chunk.Class(), len(enc))
			_, _, chunkJitter := e.net.roll()
			if d := e.net.Model().delay(len(enc)) + chunkJitter + slow; d > 0 {
				time.Sleep(d)
			}
			dec, cerr := DecodeMessage(enc)
			if cerr != nil {
				return cerr
			}
			select {
			case st.ch <- dec:
				return nil
			case <-st.done:
				return fmt.Errorf("dht: stream consumer closed")
			}
		})
		end := Message{Type: MsgEnd}
		if err != nil {
			end = Message{Type: MsgError, Err: err.Error()}
		}
		e.net.charge(end, 0)
		select {
		case st.ch <- end:
		case <-st.done:
		}
		close(st.ch)
	}()
	return st, nil
}

type inprocStream struct {
	ch        chan Message
	done      chan struct{}
	closeOnce sync.Once
	finished  bool
}

func (s *inprocStream) Recv() (Message, error) {
	if s.finished {
		return Message{}, io.EOF
	}
	m, ok := <-s.ch
	if !ok {
		return Message{}, io.EOF
	}
	switch m.Type {
	case MsgEnd:
		s.finished = true
		return Message{}, io.EOF
	case MsgError:
		s.finished = true
		return Message{}, fmt.Errorf("dht: stream error: %s", m.Err)
	}
	return m, nil
}

func (s *inprocStream) Close() {
	s.closeOnce.Do(func() { close(s.done) })
}
