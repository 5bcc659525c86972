// Package trace is a lightweight span tracer for phase-attributed query
// timelines. A Tracer keeps a bounded ring of recent traces; each Trace
// is a tree of Spans carrying a name, wall-clock interval, and
// key/value attributes. Span identity travels inside a context.Context
// on the caller side and as a (trace id, span id) pair on the wire, so
// a query's timeline includes the spans of every peer it touched —
// provided those peers share a tracer (the simulated network) or
// export their own rings (TCP deployments).
//
// The package is engineered for a cheap "off" state: every function is
// nil-safe, and when no span rides the context the instrumentation
// hot paths cost one context lookup and no allocations.
package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's span count so a pathological
// query (or a join against a huge posting list) cannot grow a trace
// without limit. Spans past the cap are counted but dropped.
const maxSpansPerTrace = 4096

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer-valued attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: fmt.Sprintf("%d", v)} }

// Tracer owns a bounded ring of recent traces. The zero value is not
// usable; use New. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	mu     sync.Mutex
	ring   []*Trace
	next   int
	seq    atomic.Uint64
	idBase uint64
}

// New returns a tracer retaining the most recent capacity traces.
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{ring: make([]*Trace, 0, capacity)}
	// Seed ids from the clock so ids from distinct processes hitting
	// one server tracer almost never collide.
	t.idBase = uint64(time.Now().UnixNano())
	return t
}

// nextID returns a process-unique id.
func (tr *Tracer) nextID() uint64 { return tr.idBase + tr.seq.Add(1) }

// add inserts a trace into the ring, evicting the oldest past capacity.
func (tr *Tracer) add(t *Trace) {
	tr.mu.Lock()
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, t)
	} else {
		tr.ring[tr.next] = t
		tr.next = (tr.next + 1) % cap(tr.ring)
	}
	tr.mu.Unlock()
}

// StartTrace begins a new trace with a root span of the given name and
// returns a context carrying the root. On a nil tracer it returns the
// context unchanged and a nil span.
func (tr *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	if tr == nil {
		return ctx, nil
	}
	t := &Trace{tracer: tr, id: tr.nextID(), name: name, start: time.Now()}
	root := &Span{t: t, id: tr.nextID(), name: name, start: t.start}
	t.spans = append(t.spans, root)
	tr.add(t)
	return ContextWithSpan(ctx, root), root
}

// JoinRemote records a server-side span for work done on behalf of a
// remote caller identified by (traceID, parentSpan). If the trace lives
// in this tracer's ring (in-process transports, or a message looping
// back to its sender) the span joins it; otherwise a stub trace is
// created so the ring still shows what this peer worked on.
func (tr *Tracer) JoinRemote(traceID, parentSpan uint64, name string) *Span {
	if tr == nil || traceID == 0 {
		return nil
	}
	t := tr.byID(traceID)
	if t == nil {
		t = &Trace{tracer: tr, id: traceID, name: "remote:" + name, start: time.Now(), remote: true}
		tr.add(t)
	}
	return t.newSpan(parentSpan, name, time.Now())
}

// byID finds a live trace in the ring.
func (tr *Tracer) byID(id uint64) *Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.ring {
		if t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// Recent returns up to n of the most recent traces, newest first.
func (tr *Tracer) Recent(n int) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Trace, 0, n)
	// The ring is ordered oldest..newest starting at next (once full).
	for i := 0; i < len(tr.ring) && len(out) < n; i++ {
		idx := (tr.next - 1 - i + 2*len(tr.ring)) % len(tr.ring)
		if len(tr.ring) < cap(tr.ring) {
			idx = len(tr.ring) - 1 - i
		}
		if t := tr.ring[idx]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Trace is one tree of spans.
type Trace struct {
	tracer *Tracer
	id     uint64
	name   string
	start  time.Time
	remote bool

	mu      sync.Mutex
	spans   []*Span
	dropped int
}

// ID returns the trace id.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Name returns the root span's name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// newSpan appends a span to the trace, honouring the span cap.
func (t *Trace) newSpan(parent uint64, name string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, parent: parent, name: name, start: start}
	t.mu.Lock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	if t.tracer != nil {
		s.id = t.tracer.nextID()
	} else {
		s.id = uint64(len(t.spans) + 1)
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Span is one timed operation inside a trace.
type Span struct {
	t      *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time

	// Guarded by t.mu.
	dur   time.Duration
	done  bool
	attrs []Attr
}

// ContextWithSpan returns a context carrying the span. A nil span
// returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

type ctxKey struct{}

// FromContext returns the span carried by ctx, or nil. This is the
// fast path every instrumentation site guards on: one context lookup,
// no allocations.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ID returns the (trace id, span id) pair carried by ctx, for stamping
// onto outgoing messages. (0, 0) when the context carries no span.
func ID(ctx context.Context) (traceID, spanID uint64) {
	s := FromContext(ctx)
	if s == nil || s.t == nil {
		return 0, 0
	}
	return s.t.id, s.id
}

// StartSpan opens a child span under the span carried by ctx and
// returns a context carrying the child. When ctx carries no span it
// returns (ctx, nil) without allocating — the disabled-tracer fast
// path. Finish the returned span (nil-safe) when the work completes.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.t.newSpan(parent.id, name, time.Now())
	if s == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, s), s
}

// Child records a completed child span under s with an explicit
// interval — the shape used after the fact on hot paths, where opening
// and finishing a live span per item would be wasteful.
func (s *Span) Child(name string, start time.Time, dur time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := s.t.newSpan(s.id, name, start)
	if c == nil {
		return nil
	}
	s.t.mu.Lock()
	c.dur = dur
	c.done = true
	s.t.mu.Unlock()
	return c
}

// Finish marks the span complete, fixing its duration.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
	s.t.mu.Unlock()
}

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, value int64) {
	s.SetAttr(key, fmt.Sprintf("%d", value))
}

// Trace returns the trace the span belongs to.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.t
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Record attaches a completed child span to the span carried by ctx.
// It is the one-liner for instrumenting an already-measured interval;
// with no span in ctx it does nothing and allocates nothing (the
// variadic attrs are only materialised after the guard).
func Record(ctx context.Context, name string, start time.Time, dur time.Duration, attrs ...Attr) {
	parent := FromContext(ctx)
	if parent == nil {
		return
	}
	c := parent.Child(name, start, dur)
	if c == nil || len(attrs) == 0 {
		return
	}
	parent.t.mu.Lock()
	c.attrs = append(c.attrs, attrs...)
	parent.t.mu.Unlock()
}

// SpanRecord is the exported form of one span.
type SpanRecord struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	StartUS  int64         `json:"start_us"` // offset from trace start
	Duration time.Duration `json:"duration_ns"`
	DurStr   string        `json:"duration"`
	Done     bool          `json:"done"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// TraceRecord is the exported form of one trace.
type TraceRecord struct {
	ID      uint64       `json:"id"`
	Name    string       `json:"name"`
	Start   time.Time    `json:"start"`
	Remote  bool         `json:"remote,omitempty"`
	Dropped int          `json:"dropped_spans,omitempty"`
	Spans   []SpanRecord `json:"spans"`
}

// Export returns a point-in-time copy of the trace for serialisation.
func (t *Trace) Export() TraceRecord {
	if t == nil {
		return TraceRecord{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := TraceRecord{ID: t.id, Name: t.name, Start: t.start, Remote: t.remote, Dropped: t.dropped}
	for _, s := range t.spans {
		sr := SpanRecord{
			ID:       s.id,
			Parent:   s.parent,
			Name:     s.name,
			StartUS:  s.start.Sub(t.start).Microseconds(),
			Duration: s.dur,
			Done:     s.done,
		}
		if !s.done {
			sr.Duration = time.Since(s.start)
		}
		sr.DurStr = sr.Duration.String()
		sr.Attrs = append(sr.Attrs, s.attrs...)
		rec.Spans = append(rec.Spans, sr)
	}
	return rec
}

// Tree renders the trace as an indented text tree, children under
// parents ordered by start time — the kadop-query -explain output.
func (t *Trace) Tree() string {
	rec := t.Export()
	if len(rec.Spans) == 0 {
		return ""
	}
	children := map[uint64][]SpanRecord{}
	byID := map[uint64]bool{}
	for _, s := range rec.Spans {
		byID[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range rec.Spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(ss []SpanRecord) {
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].StartUS < ss[j].StartUS })
	}
	order(roots)
	var b strings.Builder
	var walk func(s SpanRecord, depth int)
	walk = func(s SpanRecord, depth int) {
		fmt.Fprintf(&b, "%s%-*s %12v", strings.Repeat("  ", depth), 28-2*depth, s.Name, s.Duration.Round(time.Microsecond))
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, "  %s=%s", a.Key, a.Value)
		}
		if !s.Done {
			b.WriteString("  (open)")
		}
		b.WriteByte('\n')
		kids := children[s.ID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	if rec.Dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped past cap)\n", rec.Dropped)
	}
	return b.String()
}
