package main

import (
	"context"
	"errors"
	"sync"

	"kadop/internal/dht"
	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// The wrappers below exist only in the traced pass. Each embeds the
// interface it wraps and overrides only the methods it times, so a
// method added to store.Store or dht.Transport later is forwarded
// without a change here.

// timedStore times calls into a peer's index store. The node-facing
// wrapper (commit=false) times every read and write as the node sees
// it; with the write coalescer on, a second wrapper sits under the
// coalescer (commit=true) and times only the writes that reach the
// B+-tree, so group-commit waiting separates from store work.
type timedStore struct {
	store.Store
	rec    *recorder
	peer   string
	commit bool
}

func (t *timedStore) writeName() string {
	if t.commit {
		return "store:commit"
	}
	return "store:append"
}

func (t *timedStore) Append(term string, ps postings.List) error {
	sp := t.rec.begin(layerStore, t.writeName(), t.peer, "")
	err := t.Store.Append(term, ps)
	sp.end(len(ps))
	return err
}

func (t *timedStore) Delete(term string, p sid.Posting) error {
	sp := t.rec.begin(layerStore, t.writeName(), t.peer, "")
	err := t.Store.Delete(term, p)
	sp.end(1)
	return err
}

// ApplyBatch forwards store.Batcher; the span's N is the number of
// operations the batch commits together.
func (t *timedStore) ApplyBatch(b *store.Batch) error {
	name := "store:batch"
	if t.commit {
		name = "store:batch-commit"
	}
	sp := t.rec.begin(layerStore, name, t.peer, "")
	err := store.ApplyBatch(t.Store, b)
	sp.end(b.Len())
	return err
}

func (t *timedStore) Get(term string) (postings.List, error) {
	if t.commit {
		return t.Store.Get(term)
	}
	sp := t.rec.begin(layerStore, "store:read", t.peer, "")
	l, err := t.Store.Get(term)
	sp.end(len(l))
	return l, err
}

func (t *timedStore) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	if t.commit {
		return t.Store.Scan(term, from, fn)
	}
	return timedScan(t.rec, t.peer, fn, func(fn func(sid.Posting) bool) error {
		return t.Store.Scan(term, from, fn)
	})
}

func (t *timedStore) Count(term string) (int, error) {
	if t.commit {
		return t.Store.Count(term)
	}
	sp := t.rec.begin(layerStore, "store:read", t.peer, "")
	n, err := t.Store.Count(term)
	sp.end(0)
	return n, err
}

// Snapshot forwards store.Snapshotter, wrapping the snapshot so reads
// through it are timed like direct reads.
func (t *timedStore) Snapshot() (store.Snapshot, error) {
	snap := store.SnapshotOf(t.Store)
	if snap == nil {
		// The inner store has no snapshots (or is closed); the caller
		// falls back to direct reads, which surface a closed store.
		return nil, errNoSnapshot
	}
	if t.commit {
		return snap, nil
	}
	sp := t.rec.begin(layerStore, "store:snapshot", t.peer, "")
	sp.end(0)
	return &timedSnap{Snapshot: snap, rec: t.rec, peer: t.peer}, nil
}

type timedSnap struct {
	store.Snapshot
	rec  *recorder
	peer string
}

func (t *timedSnap) Get(term string) (postings.List, error) {
	sp := t.rec.begin(layerStore, "store:read", t.peer, "")
	l, err := t.Snapshot.Get(term)
	sp.end(len(l))
	return l, err
}

func (t *timedSnap) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	return timedScan(t.rec, t.peer, fn, func(fn func(sid.Posting) bool) error {
		return t.Snapshot.Scan(term, from, fn)
	})
}

func (t *timedSnap) Count(term string) (int, error) {
	sp := t.rec.begin(layerStore, "store:read", t.peer, "")
	n, err := t.Snapshot.Count(term)
	sp.end(0)
	return n, err
}

// timedScan times one scan and counts the postings it delivered.
func timedScan(rec *recorder, peer string, fn func(sid.Posting) bool, scan func(func(sid.Posting) bool) error) error {
	sp := rec.begin(layerStore, "store:read", peer, "")
	n := 0
	err := scan(func(p sid.Posting) bool {
		n++
		return fn(p)
	})
	sp.end(n)
	return err
}

// timedTransport times a peer's outgoing calls and streams. Incoming
// messages reach the wrapped endpoint directly, so the server side runs
// unwrapped and its store work shows as store spans inside this span.
type timedTransport struct {
	dht.Transport
	rec       *recorder
	collector *metrics.Collector
}

// Metrics keeps the node's traffic and robustness accounting on the
// simulated network's collector, as the unwrapped endpoint does.
func (t *timedTransport) Metrics() *metrics.Collector { return t.collector }

func (t *timedTransport) Call(ctx context.Context, to dht.Contact, req dht.Message) (dht.Message, error) {
	sp := t.rec.begin(layerDHT, "dht:call", t.Addr(), to.Addr)
	resp, err := t.Transport.Call(ctx, to, req)
	sp.end(0)
	return resp, err
}

func (t *timedTransport) OpenStream(ctx context.Context, to dht.Contact, req dht.Message) (dht.MsgStream, error) {
	sp := t.rec.begin(layerDHT, "dht:stream", t.Addr(), to.Addr)
	st, err := t.Transport.OpenStream(ctx, to, req)
	if err != nil || sp == nil {
		sp.end(0)
		return st, err
	}
	return &timedStream{MsgStream: st, sp: sp}, nil
}

// timedStream ends its span when the consumer sees the stream's end or
// abandons it.
type timedStream struct {
	dht.MsgStream
	sp     *openSpan
	once   sync.Once
	chunks int
}

func (t *timedStream) Recv() (dht.Message, error) {
	m, err := t.MsgStream.Recv()
	if err != nil {
		t.finish()
	} else {
		t.chunks++
	}
	return m, err
}

func (t *timedStream) Close() {
	t.MsgStream.Close()
	t.finish()
}

func (t *timedStream) finish() {
	t.once.Do(func() { t.sp.end(t.chunks) })
}

var errNoSnapshot = errors.New("bench: wrapped store has no snapshots")
