package dht

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/obs/flight"
	"kadop/internal/postings"
	"kadop/internal/trace"
)

// This file is the client side of the DHT interface: the one envelope
// every outgoing request passes through, and the operations built on it
// — locate, append, get and the pipelined get, delete, and application
// procedures. Every operation takes the caller's context first.

// rpc is the envelope of every outgoing request — a unary call, or for
// a stream type of msgTable the opening of a chunk stream: it stamps the
// sender and the caller's trace ids, bounds each attempt by RPCTimeout,
// retries transport failures under the node's policy, hands a contact
// that stays unreachable to the failure detector (the replacement cache
// refills the bucket), and accounts the outcome — latency histogram,
// per-peer counters, flight ring, and a child span when the caller is
// traced.
// With once set there is a single attempt, and its failure is left to
// the caller, which rotates over holders itself: one lost message is no
// evidence that a peer is gone, and evicting it would send lookups past
// a live key owner.
func (n *Node) rpc(ctx context.Context, to Contact, req Message, once bool) (resp Message, ms MsgStream, err error) {
	req.From = n.from()
	req.TraceID, req.SpanID = trace.ID(ctx)
	info := req.Type.info()
	op := info.op
	start := time.Now()
	retry := n.cfg.Retry
	if once {
		retry = RetryPolicy{Attempts: 1}
	}
	err = withRetry(ctx, retry, n.collector, n.rng, func() error {
		actx, cancel := context.WithTimeout(ctx, n.cfg.RPCTimeout)
		defer cancel()
		var cerr error
		if info.stream {
			ms, cerr = n.tr.OpenStream(actx, to, req)
		} else {
			resp, cerr = n.tr.Call(actx, to, req)
		}
		timedOut := actx.Err() != nil || errors.Is(cerr, context.DeadlineExceeded)
		if cerr != nil && timedOut && ctx.Err() == nil {
			// The attempt timed out but the caller's budget remains: count
			// the timeout and report a retryable error (not a context one,
			// which would end the retry loop).
			n.collector.CountEvent(metrics.EventTimeout)
			return fmt.Errorf("dht: %s %s: attempt timed out: %v", op, to.Addr, cerr)
		}
		return cerr
	})
	if err != nil && Retryable(err) && !once && !to.ID.IsZero() {
		n.noteFailure(to)
	}
	// Even an error response (a shed read, say) carries the responder's
	// load gauge — that rejection is exactly when selection needs it.
	n.noteGauge(to.Addr, resp)
	dur := time.Since(start)
	n.collector.Observe(op, dur)
	n.countPeerRPC(op, to, err)
	if fr := n.flight.Load(); fr != nil {
		// Retries are folded in, like the latency observation above.
		e := flight.Event{Kind: flight.KindRPC, Name: op, Peer: to.Addr, TraceID: req.TraceID, Dur: dur}
		if err != nil {
			e.Err = err.Error()
		}
		fr.Record(e)
	}
	if parent := trace.FromContext(ctx); parent != nil {
		if info.stream {
			op = "stream-open:" + info.name
		}
		sp := parent.Child(op, start, dur)
		sp.SetAttr("peer", to.Addr)
		if req.Proc != "" {
			sp.SetAttr("proc", req.Proc)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	return resp, ms, err
}

// countPeerRPC records one outgoing RPC (and its failure, if any) in
// the labeled registry, keyed by operation and remote peer — the
// per-peer breakdown the shared Collector's traffic classes cannot
// express.
func (n *Node) countPeerRPC(op string, to Contact, err error) {
	n.reg.Counter("kadop_rpc_client_total",
		"Outgoing RPCs by operation and remote peer (retried calls count once).",
		metrics.Label{Key: "op", Value: op},
		metrics.Label{Key: "peer", Value: to.Addr}).Add(1)
	if err != nil {
		n.reg.Counter("kadop_rpc_client_errors_total",
			"Outgoing RPCs that failed after retries, by operation and remote peer.",
			metrics.Label{Key: "op", Value: op},
			metrics.Label{Key: "peer", Value: to.Addr}).Add(1)
	}
}

// call is the unary RPC: one request, one response, under the node's
// retry policy.
func (n *Node) call(ctx context.Context, to Contact, req Message) (Message, error) {
	resp, _, err := n.rpc(ctx, to, req, false)
	return resp, err
}

// deliver hands a request to one peer: over the wire, or — when the
// peer is this node — straight to the server switch under the caller's
// own context (deadline and trace span included), so the local case of
// every operation is the code the remote case runs.
func (n *Node) deliver(ctx context.Context, to Contact, req Message) (Message, error) {
	if to.ID == n.self.ID {
		return n.serve(ctx, n.self, req)
	}
	return n.call(ctx, to, req)
}

// openChunks opens a chunk stream against one peer and returns the
// function that drains it, calling fn once per chunk; fn may keep the
// postings it is handed. Retries apply to the opening only (a caller
// that rotates replicas itself passes once instead of burning the budget
// on a stale one — see rpc); an error mid-stream surfaces from drain.
// When the peer is this node the stream is served from the local store
// without a round trip.
func (n *Node) openChunks(ctx context.Context, to Contact, req Message, once bool) (drain func(fn func(Message) error) error, err error) {
	if to.ID == n.self.ID {
		// The trace ids are stamped so HandleStream attributes the work as
		// usual. The server reuses its chunk buffer between sends, so each
		// chunk is copied.
		req.TraceID, req.SpanID = trace.ID(ctx)
		return func(fn func(Message) error) error {
			return n.HandleStream(n.self, req, func(m Message) error {
				m.Postings = m.Postings.Clone()
				return fn(m)
			})
		}, nil
	}
	_, ms, err := n.rpc(ctx, to, req, once)
	if err != nil {
		return nil, err
	}
	return func(fn func(Message) error) error {
		defer ms.Close()
		for {
			m, err := ms.Recv()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			n.noteGauge(to.Addr, m)
			if err := fn(m); err != nil {
				return err
			}
		}
	}, nil
}

// ownerPolicy says what a fan-out over a key's owners needs of them.
type ownerPolicy int

const (
	everyOwner ownerPolicy = iota // index writes: all must succeed, the first failure ends it
	someOwner                     // directory writes, merged reads: all are tried, one success suffices
	firstOwner                    // replicated reads: the first success ends it
)

// eachOwner is the one loop over a replica set: it runs fn against the
// owners in closeness order under the policy. Except under everyOwner,
// an error is reported (the first one) only when no owner succeeded —
// unreachable replicas are healed later by repair and by reads trying
// all of them.
func eachOwner(owners []Contact, policy ownerPolicy, fn func(Contact) error) error {
	var firstErr error
	ok := false
	for _, o := range owners {
		err := fn(o)
		switch {
		case err == nil && policy == firstOwner:
			return nil
		case err == nil:
			ok = true
		case policy == everyOwner:
			return err
		case firstErr == nil:
			firstErr = err
		}
	}
	if ok {
		return nil
	}
	return firstErr
}

// toOwners delivers one write to every replica owner of its key. An
// acknowledged write reached them all; store-side deduplication makes a
// retried delivery idempotent.
func (n *Node) toOwners(ctx context.Context, req Message) error {
	owners, err := n.Owners(ctx, req.Key)
	if err != nil {
		return err
	}
	return eachOwner(owners, everyOwner, func(o Contact) error {
		if _, err := n.deliver(ctx, o, req); err != nil {
			return fmt.Errorf("dht: %s %q to %s: %w", req.Type, req.Key, o.Addr, err)
		}
		return nil
	})
}

// canonical returns ps in the order the wire codec requires, sorting a
// copy when the caller's list is not already in it.
func canonical(ps postings.List) postings.List {
	if !ps.Sorted() {
		ps = ps.Clone()
		ps.Sort()
	}
	return ps
}

// Append adds postings to the key's list on its owner peers — the
// linear-cost indexing operation of Section 3.
func (n *Node) Append(ctx context.Context, key string, ps postings.List) error {
	start := time.Now()
	defer func() { n.collector.Observe(metrics.OpAppend, time.Since(start)) }()
	ctx, sp := trace.StartSpan(ctx, "dht:append")
	if sp != nil {
		sp.SetAttr("key", key)
		sp.SetInt("postings", int64(len(ps)))
		defer sp.Finish()
	}
	return n.toOwners(ctx, Message{Type: MsgAppend, Key: key, Postings: canonical(ps)})
}

// AppendAt adds postings to a key's list on one specific peer,
// bypassing the owner lookup. The DPP layer uses it for overflow
// blocks, whose placement the root block records explicitly (the
// paper's pointer function); DHT replication deliberately does not
// apply to such blocks (Section 4.2 notes the DHT's fixed replication
// does not fit the DPP's needs).
func (n *Node) AppendAt(ctx context.Context, to Contact, key string, ps postings.List) error {
	_, err := n.deliver(ctx, to, Message{Type: MsgAppend, Key: key, Postings: canonical(ps)})
	return err
}

// Delete removes postings from the key's list on all owners; each owner
// applies the list as one store transaction.
func (n *Node) Delete(ctx context.Context, key string, ps postings.List) error {
	return n.toOwners(ctx, Message{Type: MsgDelete, Key: key, Postings: canonical(ps)})
}

// DeleteAt removes postings from a key's list on a specific peer (the
// DPP's block-targeted deletion).
func (n *Node) DeleteAt(ctx context.Context, to Contact, key string, ps postings.List) error {
	_, err := n.deliver(ctx, to, Message{Type: MsgDelete, Key: key, Postings: canonical(ps)})
	return err
}

// DeleteKey removes the key's entire list on all owners.
func (n *Node) DeleteKey(ctx context.Context, key string) error {
	return n.toOwners(ctx, Message{Type: MsgDeleteKey, Key: key})
}

// DeleteKeyAt removes key's list on one specific peer — the demotion
// half of adaptive replication, dropping an expired promoted copy.
// Callers must check the target is not a current owner first.
func (n *Node) DeleteKeyAt(ctx context.Context, to Contact, key string) error {
	_, err := n.deliver(ctx, to, Message{Type: MsgDeleteKey, Key: key})
	return err
}

// Get retrieves the key's full posting list — the blocking get of the
// standard DHT API. With Replication > 1 every reachable owner is
// consulted and the copies are merged, so the read survives the loss of
// all but one replica (and heals divergent copies at the reader).
func (n *Node) Get(ctx context.Context, key string) (postings.List, error) {
	owners, err := n.Owners(ctx, key)
	if err != nil {
		return nil, err
	}
	var merged postings.List
	got := false
	err = eachOwner(owners, someOwner, func(o Contact) error {
		var l postings.List
		if o.ID == n.self.ID {
			// Not through deliver: a local read is not subject to the
			// admission gate the served MsgGet passes.
			var err error
			if l, err = n.localGet(key); err != nil {
				return err
			}
		} else {
			resp, err := n.call(ctx, o, Message{Type: MsgGet, Key: key})
			if err != nil {
				return err
			}
			l = resp.Postings
		}
		if got {
			l = postings.MergeUnique(merged, l)
		}
		merged, got = l, true
		return nil
	})
	return merged, err
}

// GetStream retrieves the key's posting list as a pipelined stream —
// the paper's pipelined get. The returned stream delivers postings in
// canonical order while the transfer is still in progress. With
// Replication > 1 the owners are ranked by a digest exchange (most
// postings first) and the stream fails over to the next replica when
// opening fails, so a dead or stale primary does not break the
// pipelined read.
func (n *Node) GetStream(ctx context.Context, key string) (postings.Stream, error) {
	owners, err := n.Owners(ctx, key)
	if err != nil {
		return nil, err
	}
	if len(owners) > 1 {
		owners = n.rankOwners(ctx, owners, key)
	}
	var s postings.Stream
	err = eachOwner(owners, firstOwner, func(o Contact) (err error) {
		s, err = n.streamFrom(ctx, o, Message{Type: MsgGetStream, Key: key})
		return err
	})
	return s, err
}

// rankOwners orders a replica set for reading: reachable owners first,
// by descending posting count (the freshest copy wins), preserving
// XOR-closeness order among ties.
func (n *Node) rankOwners(ctx context.Context, owners []Contact, key string) []Contact {
	type ranked struct {
		c     Contact
		count int
		ok    bool
	}
	rs := make([]ranked, len(owners))
	for i, o := range owners {
		c, err := n.digestOf(ctx, o, key)
		rs[i] = ranked{c: o, count: c, ok: err == nil}
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].ok != rs[j].ok {
			return rs[i].ok
		}
		return rs[i].count > rs[j].count
	})
	out := make([]Contact, len(rs))
	for i, r := range rs {
		out[i] = r.c
	}
	return out
}

// digestOf asks one peer how many postings it holds for key.
func (n *Node) digestOf(ctx context.Context, to Contact, key string) (int, error) {
	resp, err := n.deliver(ctx, to, Message{Type: MsgDigest, Key: key})
	if err != nil {
		return 0, err
	}
	v, nn := binary.Uvarint(resp.Blob)
	if nn <= 0 {
		return 0, fmt.Errorf("dht: digest of %q from %s: bad count", key, to.Addr)
	}
	return int(v), nil
}

// streamFrom opens a posting stream for a request against a specific
// peer; the transfer runs behind a pipe so the consumer reads postings
// while chunks are still arriving.
func (n *Node) streamFrom(ctx context.Context, to Contact, req Message) (postings.Stream, error) {
	drain, err := n.openChunks(ctx, to, req, false)
	if err != nil {
		return nil, err
	}
	pipe := postings.NewPipe(n.cfg.ChunkSize * 2)
	go func() {
		pipe.Close(drain(func(m Message) error {
			if !pipe.Send(m.Postings) {
				return fmt.Errorf("dht: stream consumer closed")
			}
			return nil
		}))
	}()
	return pipe, nil
}

// CallProc invokes an application procedure on the owner of key.
func (n *Node) CallProc(ctx context.Context, key, proc string, blob []byte) ([]byte, error) {
	owner, err := n.LocateContext(ctx, key)
	if err != nil {
		return nil, err
	}
	return n.CallProcOn(ctx, owner, key, proc, blob)
}

// CallProcOwners invokes an application procedure on every replica
// owner of key (replicated writes such as directory entries). It
// succeeds when at least one owner accepted the call, returning the
// first successful reply.
func (n *Node) CallProcOwners(ctx context.Context, key, proc string, blob []byte) ([]byte, error) {
	return n.callProcOwners(ctx, key, proc, blob, someOwner)
}

// CallProcAny invokes an application procedure on the replica owners of
// key in turn, returning the first success (replicated reads).
func (n *Node) CallProcAny(ctx context.Context, key, proc string, blob []byte) ([]byte, error) {
	return n.callProcOwners(ctx, key, proc, blob, firstOwner)
}

func (n *Node) callProcOwners(ctx context.Context, key, proc string, blob []byte, policy ownerPolicy) ([]byte, error) {
	owners, err := n.Owners(ctx, key)
	if err != nil {
		return nil, err
	}
	var out []byte
	got := false
	err = eachOwner(owners, policy, func(o Contact) error {
		b, err := n.CallProcOn(ctx, o, key, proc, blob)
		if err == nil && !got {
			out, got = b, true
		}
		return err
	})
	return out, err
}

// CallProcOn invokes an application procedure on a specific peer.
func (n *Node) CallProcOn(ctx context.Context, to Contact, key, proc string, blob []byte) ([]byte, error) {
	resp, err := n.deliver(ctx, to, Message{Type: MsgApp, Key: key, Proc: proc, Blob: blob})
	return resp.Blob, err
}
