// Package metrics provides the traffic and latency accounting used by
// the experiments: every DHT message is charged to a class, and
// experiment harnesses read totals to reproduce the paper's bandwidth
// and response-time measurements.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Class labels a kind of traffic for attribution in the reports.
type Class string

// Traffic classes used by the system.
const (
	Routing  Class = "routing"  // find-node and ping traffic
	Index    Class = "index"    // posting appends during publishing
	Postings Class = "postings" // posting list transfers during queries
	Filters  Class = "filters"  // structural Bloom filter transfers (unspecified kind)
	// FiltersAB and FiltersDB split filter traffic by kind, matching the
	// breakdown of the paper's Figure 7.
	FiltersAB Class = "filters-ab"
	FiltersDB Class = "filters-db"
	Control   Class = "control" // query control, conditions, completions
	// Repair is replica-maintenance traffic: digests exchanged between
	// key owners and the re-pushed copies that heal under-replicated
	// keys after churn. Reported separately so experiments can price
	// robustness the same way they price query bandwidth.
	Repair Class = "repair"
	Other  Class = "other"
)

// Event labels a robustness occurrence counted without a byte cost:
// the failure-handling machinery reports how often it had to act.
type Event string

// Events counted by the failure-handling machinery.
const (
	// EventRetry counts RPC attempts beyond the first.
	EventRetry Event = "retries"
	// EventTimeout counts RPCs abandoned on a context deadline.
	EventTimeout Event = "timeouts"
	// EventEviction counts contacts dropped from routing tables after
	// failed calls.
	EventEviction Event = "evictions"
	// EventRepair counts keys re-pushed by the replica repair loop.
	EventRepair Event = "repairs"
	// EventResync counts keys pulled and merged by the resync/join
	// direction of replica repair (a peer catching up on appends it
	// missed, or a joiner fetching keys it is now responsible for).
	EventResync Event = "resync-pulls"
	// EventHandoff counts keys a gracefully departing peer handed off
	// to the remaining owner set before leaving.
	EventHandoff Event = "handoff-keys"
	// EventRefresh counts stale routing buckets refreshed with a
	// random-identifier lookup.
	EventRefresh Event = "bucket-refreshes"
	// EventShed counts reads the admission gate rejected with
	// ErrOverload so the client would fail over to another replica.
	EventShed Event = "shed-reads"
	// EventCacheHit counts posting blocks served from the query-peer
	// block cache instead of the network.
	EventCacheHit Event = "cache-hits"
	// EventCacheMiss counts posting blocks the cache had to fetch.
	EventCacheMiss Event = "cache-misses"
	// EventCacheCoalesced counts fetches that joined an in-flight
	// request for the same block instead of issuing their own RPC.
	EventCacheCoalesced Event = "cache-coalesced"
	// EventCacheEviction counts cached blocks evicted to stay within
	// the cache's byte budget.
	EventCacheEviction Event = "cache-evictions"
	// EventCacheBytesSaved accumulates the encoded bytes of posting
	// blocks served from cache — wire transfer that did not happen.
	EventCacheBytesSaved Event = "cache-bytes-saved"
)

// Collector accumulates message and byte counts per class. The zero
// value is unusable; use NewCollector. All methods are safe for
// concurrent use.
type Collector struct {
	mu       sync.Mutex
	messages map[Class]int64
	bytes    map[Class]int64
	events   map[Event]int64

	// histMu guards only the map; the histograms themselves record
	// through atomics, so Observe takes a read lock on the common path
	// and the write lock only the first time an operation appears.
	histMu sync.RWMutex
	hists  map[string]*Histogram
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		messages: map[Class]int64{},
		bytes:    map[Class]int64{},
		events:   map[Event]int64{},
		hists:    map[string]*Histogram{},
	}
}

// Observe records one latency observation for the named operation.
func (c *Collector) Observe(op string, d time.Duration) {
	if c == nil {
		return
	}
	c.hist(op).Record(d)
}

// ObserveExemplar records one latency observation for the named
// operation together with the trace id that explains it; the owning
// bucket keeps the observation as its exposition exemplar. A zero
// traceID degrades to a plain Observe.
func (c *Collector) ObserveExemplar(op string, d time.Duration, traceID uint64) {
	if c == nil {
		return
	}
	if traceID == 0 {
		c.Observe(op, d)
		return
	}
	c.hist(op).RecordExemplar(d, traceID)
}

// hist returns (creating on first use) the histogram for op.
func (c *Collector) hist(op string) *Histogram {
	c.histMu.RLock()
	h := c.hists[op]
	c.histMu.RUnlock()
	if h == nil {
		c.histMu.Lock()
		if c.hists == nil {
			c.hists = map[string]*Histogram{}
		}
		if h = c.hists[op]; h == nil {
			h = &Histogram{}
			c.hists[op] = h
		}
		c.histMu.Unlock()
	}
	return h
}

// Hist returns the histogram for an operation, or nil if nothing has
// been observed under that name.
func (c *Collector) Hist(op string) *Histogram {
	if c == nil {
		return nil
	}
	c.histMu.RLock()
	defer c.histMu.RUnlock()
	return c.hists[op]
}

// Quantile returns the q-th latency quantile of an operation (0 when
// the operation has no observations).
func (c *Collector) Quantile(op string, q float64) time.Duration {
	return c.Hist(op).Quantile(q)
}

// Ops returns the sorted names of all operations with observations.
func (c *Collector) Ops() []string {
	if c == nil {
		return nil
	}
	c.histMu.RLock()
	ops := make([]string, 0, len(c.hists))
	for op := range c.hists {
		ops = append(ops, op)
	}
	c.histMu.RUnlock()
	sort.Strings(ops)
	return ops
}

// ClassBytes returns a copy of the per-class byte counters, for
// before/after deltas around a traced operation.
func (c *Collector) ClassBytes() map[Class]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[Class]int64, len(c.bytes))
	for cl, n := range c.bytes {
		m[cl] = n
	}
	return m
}

// ClassStat is one traffic class in an Export.
type ClassStat struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
}

// OpStat is one latency histogram in an Export.
type OpStat struct {
	Count   int64         `json:"count"`
	Mean    time.Duration `json:"mean_ns"`
	P50     time.Duration `json:"p50_ns"`
	P95     time.Duration `json:"p95_ns"`
	P99     time.Duration `json:"p99_ns"`
	MeanStr string        `json:"mean"`
	P50Str  string        `json:"p50"`
	P95Str  string        `json:"p95"`
	P99Str  string        `json:"p99"`
}

// Export captures the whole collector for JSON serialisation (the
// admin endpoint's /debug/metrics).
type Export struct {
	Classes map[string]ClassStat `json:"classes"`
	Events  map[string]int64     `json:"events"`
	Ops     map[string]OpStat    `json:"ops"`
}

// Export returns a point-in-time copy of every counter and histogram.
func (c *Collector) Export() Export {
	ex := Export{
		Classes: map[string]ClassStat{},
		Events:  map[string]int64{},
		Ops:     map[string]OpStat{},
	}
	if c == nil {
		return ex
	}
	c.mu.Lock()
	for cl, b := range c.bytes {
		ex.Classes[string(cl)] = ClassStat{Messages: c.messages[cl], Bytes: b}
	}
	for e, n := range c.events {
		ex.Events[string(e)] = n
	}
	c.mu.Unlock()
	c.histMu.RLock()
	for op, h := range c.hists {
		st := OpStat{
			Count: h.Count(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
		st.MeanStr = st.Mean.String()
		st.P50Str = st.P50.String()
		st.P95Str = st.P95.String()
		st.P99Str = st.P99.String()
		ex.Ops[op] = st
	}
	c.histMu.RUnlock()
	return ex
}

// CountEvent records one robustness event.
func (c *Collector) CountEvent(e Event) {
	c.AddEvent(e, 1)
}

// AddEvent adds n to an event counter; byte-valued events (such as
// cache-bytes-saved) accumulate through it.
func (c *Collector) AddEvent(e Event, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.events == nil {
		c.events = map[Event]int64{}
	}
	c.events[e] += n
	c.mu.Unlock()
}

// Events returns the count for one event kind.
func (c *Collector) Events(e Event) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events[e]
}

// Count charges one message of n bytes to the class.
func (c *Collector) Count(class Class, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.messages[class]++
	c.bytes[class] += int64(n)
	c.mu.Unlock()
}

// Bytes returns the byte total for one class.
func (c *Collector) Bytes(class Class) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes[class]
}

// Messages returns the message total for one class.
func (c *Collector) Messages(class Class) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.messages[class]
}

// TotalBytes returns the byte total across all classes.
func (c *Collector) TotalBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, v := range c.bytes {
		n += v
	}
	return n
}

// Reset zeroes all counters and histograms.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.messages = map[Class]int64{}
	c.bytes = map[Class]int64{}
	c.events = map[Event]int64{}
	c.mu.Unlock()
	c.histMu.Lock()
	c.hists = map[string]*Histogram{}
	c.histMu.Unlock()
}

// Snapshot returns a stable, sorted rendering of the counters:
// per-class traffic, robustness events, and latency percentiles for
// every observed operation.
func (c *Collector) Snapshot() string {
	if c == nil {
		return ""
	}
	var b strings.Builder
	c.mu.Lock()
	classes := make([]string, 0, len(c.bytes))
	for cl := range c.bytes {
		classes = append(classes, string(cl))
	}
	sort.Strings(classes)
	for _, cl := range classes {
		fmt.Fprintf(&b, "%-10s %8d msgs %12d bytes\n", cl, c.messages[Class(cl)], c.bytes[Class(cl)])
	}
	events := make([]string, 0, len(c.events))
	for e := range c.events {
		events = append(events, string(e))
	}
	sort.Strings(events)
	for _, e := range events {
		fmt.Fprintf(&b, "%-10s %8d events\n", e, c.events[Event(e)])
	}
	c.mu.Unlock()
	for _, op := range c.Ops() {
		h := c.Hist(op)
		fmt.Fprintf(&b, "%-18s %8d obs  p50 %-10v p95 %-10v p99 %-10v\n",
			op, h.Count(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	return b.String()
}
