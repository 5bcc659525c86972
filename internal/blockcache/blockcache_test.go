package blockcache

import (
	"context"
	"errors"
	"sync"
	"testing"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

func mkList(doc uint32, n int) postings.List {
	l := make(postings.List, 0, n)
	for i := 0; i < n; i++ {
		l = append(l, sid.Posting{
			Peer: 1,
			Doc:  sid.DocID(doc),
			SID:  sid.SID{Start: uint32(i + 1), End: uint32(i + 2), Level: 1},
		})
	}
	return l
}

func TestCacheHitMissAndGeneration(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, shards: 4})
	k := Key{Term: "tag:article", Block: "overflow:1:tag:article", Gen: 3}
	if _, ok := c.Get(k); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	l := mkList(7, 16)
	c.Add(k, l)
	got, ok := c.Get(k)
	if !ok || len(got) != len(l) {
		t.Fatalf("expected hit with %d postings, got ok=%v len=%d", len(l), ok, len(got))
	}
	// A bumped generation addresses a different entry: no stale hit.
	if _, ok := c.Get(Key{Term: k.Term, Block: k.Block, Gen: 4}); ok {
		t.Fatal("stale generation served from cache")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 entry", st)
	}
	if st.BytesSaved != int64(postings.EncodedSize(l)) {
		t.Fatalf("bytes saved = %d, want encoded size %d", st.BytesSaved, postings.EncodedSize(l))
	}
}

func TestCacheEviction(t *testing.T) {
	// One shard with a tiny budget: the third insert must evict the
	// least recently used entry, not the most recent.
	l := mkList(1, 32)
	per := int64(postings.EncodedSize(l))
	c := New(Options{MaxBytes: 2*per + per/2, shards: 1})
	ka := Key{Term: "a"}
	kb := Key{Term: "b"}
	kc := Key{Term: "c"}
	c.Add(ka, l)
	c.Add(kb, l)
	c.Get(ka) // refresh a, so b is LRU
	c.Add(kc, l)
	if _, ok := c.Get(kb); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get(ka); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := c.Get(kc); !ok {
		t.Fatal("newest entry c was evicted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCacheRejectsOversized(t *testing.T) {
	c := New(Options{MaxBytes: 64, shards: 1})
	big := mkList(1, 1024)
	c.Add(Key{Term: "big"}, big)
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("oversized entry not rejected: %+v", st)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20})
	k := Key{Term: "t", Block: "overflow:1:t"}
	l := mkList(3, 8)

	f, leader := c.BeginFlight(k)
	if !leader {
		t.Fatal("first caller must lead")
	}
	const waiters = 8
	var wg, joined sync.WaitGroup
	results := make([]postings.List, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		joined.Add(1)
		go func(i int) {
			defer wg.Done()
			wf, lead := c.BeginFlight(k)
			joined.Done()
			if lead {
				t.Error("waiter elected leader while flight in progress")
				c.Complete(k, wf, nil, errors.New("bogus"))
				return
			}
			got, err := wf.Wait(context.Background())
			if err != nil {
				t.Errorf("waiter error: %v", err)
			}
			results[i] = got
		}(i)
	}
	joined.Wait() // all waiters have joined the flight before it completes
	c.Complete(k, f, l, nil)
	wg.Wait()
	for i, got := range results {
		if len(got) != len(l) {
			t.Fatalf("waiter %d got %d postings, want %d", i, len(got), len(l))
		}
	}
	if co := c.Stats().Coalesced; co != waiters {
		t.Fatalf("coalesced = %d, want %d", co, waiters)
	}
	// The completed flight stored the block: later Gets hit.
	if _, ok := c.Get(k); !ok {
		t.Fatal("completed flight did not populate cache")
	}
}

func TestSingleflightFailureDoesNotCache(t *testing.T) {
	c := New(Options{})
	k := Key{Term: "t"}
	f, leader := c.BeginFlight(k)
	if !leader {
		t.Fatal("expected leadership")
	}
	boom := errors.New("fetch failed")
	c.Complete(k, f, nil, boom)
	if _, err := f.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want %v", err, boom)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed fetch was cached")
	}
	// The flight slot is released: the next caller leads a fresh fetch.
	f2, leader := c.BeginFlight(k)
	if !leader {
		t.Fatal("slot not released after failed flight")
	}
	c.Complete(k, f2, mkList(1, 2), nil)
}

func TestBeginFlightAfterCompletionReturnsCached(t *testing.T) {
	c := New(Options{})
	k := Key{Term: "t"}
	f, _ := c.BeginFlight(k)
	c.Complete(k, f, mkList(2, 4), nil)
	// The block is cached now; a racer that missed Get but reaches
	// BeginFlight gets a pre-completed flight, not leadership.
	f2, leader := c.BeginFlight(k)
	if leader {
		t.Fatal("leadership granted for an already-cached block")
	}
	got, err := f2.Wait(context.Background())
	if err != nil || len(got) != 4 {
		t.Fatalf("pre-completed flight returned (%d, %v)", len(got), err)
	}
}

func TestWaitRespectsContext(t *testing.T) {
	c := New(Options{})
	k := Key{Term: "t"}
	f, leader := c.BeginFlight(k)
	if !leader {
		t.Fatal("expected leadership")
	}
	w, _ := c.BeginFlight(k)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	c.Complete(k, f, nil, errors.New("late"))
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{Term: "x"}); ok {
		t.Fatal("nil cache hit")
	}
	c.Add(Key{Term: "x"}, mkList(1, 1))
	f, leader := c.BeginFlight(Key{Term: "x"})
	if !leader {
		t.Fatal("nil cache must elect every caller leader")
	}
	c.Complete(Key{Term: "x"}, f, mkList(1, 1), nil)
	if _, err := f.Wait(context.Background()); err != nil {
		t.Fatalf("nil-cache flight error: %v", err)
	}
	c.Reset()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestCollectorMirroring(t *testing.T) {
	c := New(Options{})
	col := metrics.NewCollector()
	c.SetCollector(col)
	k := Key{Term: "t"}
	c.Get(k) // miss
	c.Add(k, mkList(1, 8))
	c.Get(k) // hit
	if col.Events(metrics.EventCacheMiss) != 1 || col.Events(metrics.EventCacheHit) != 1 {
		t.Fatalf("events: miss=%d hit=%d, want 1/1",
			col.Events(metrics.EventCacheMiss), col.Events(metrics.EventCacheHit))
	}
	if col.Events(metrics.EventCacheBytesSaved) == 0 {
		t.Fatal("bytes-saved event not mirrored")
	}
}
