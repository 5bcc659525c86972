package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers. A span is recorded by the benchmark, around a call into
// a layer; nothing here lives inside the program.
const (
	layerKadop = "kadop" // one PublishXMLBatch or Query call
	layerDHT   = "dht"   // one outgoing Transport.Call / OpenStream
	layerStore = "store" // one call into the store handed to dht.NewNode
)

// span is one timed call. Times are nanoseconds since the recorder's
// epoch. All spans of one operation share Op, the id of the driver span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Peer   string `json:"peer,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the span's unit of work: postings for store reads and
	// appends, operations for a batch commit.
	N int `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced pass's spans in memory. The traced pass
// runs one operation at a time, so every layer span belongs to the
// operation in flight; a store span is parented to the innermost open
// transport span aimed at that store's peer, else to the operation.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	nextID uint64
	curOp  uint64
	openTo map[string][]uint64 // destination address → open dht span ids
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), openTo: map[string][]uint64{}}
}

// openSpan is a begun, unfinished span.
type openSpan struct {
	r  *recorder
	s  span
	to string
}

// begin opens a span; it returns nil while recording is off, and end is
// nil-safe, so wrappers call both unconditionally. to is the
// destination address of a dht span, peer the address the span ran at.
func (r *recorder) begin(layer, name, peer, to string) *openSpan {
	if r == nil || !r.on.Load() {
		return nil
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s := span{ID: r.nextID, Op: r.curOp, Parent: r.curOp, Layer: layer, Name: name, Peer: peer, Start: now}
	switch layer {
	case layerKadop:
		s.Op, s.Parent = s.ID, 0
		r.curOp = s.ID
	case layerDHT:
		r.openTo[to] = append(r.openTo[to], s.ID)
	case layerStore:
		if open := r.openTo[peer]; len(open) > 0 {
			s.Parent = open[len(open)-1]
		}
	}
	return &openSpan{r: r, s: s, to: to}
}

// end closes the span with its unit-of-work count.
func (o *openSpan) end(n int) {
	if o == nil {
		return
	}
	r := o.r
	o.s.End = time.Since(r.epoch).Nanoseconds()
	o.s.N = n
	r.mu.Lock()
	defer r.mu.Unlock()
	if o.s.Layer == layerDHT {
		open := r.openTo[o.to]
		for i, id := range open {
			if id == o.s.ID {
				r.openTo[o.to] = append(open[:i], open[i+1:]...)
				break
			}
		}
	}
	if o.s.Layer == layerKadop && r.curOp == o.s.ID {
		r.curOp = 0
	}
	r.spans = append(r.spans, o.s)
}

// snapshot returns the recorded spans sorted by start time.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover: overlapping children count once, and a child reaching
// outside the parent is clipped to it.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		if v.lo < reach {
			v.lo = reach
		}
		covered += v.hi - v.lo
		reach = v.hi
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// opSelfTimes returns, per driver span, the operation time that no dht
// or store span of the same operation covers.
func opSelfTimes(spans []span) map[uint64]time.Duration {
	byOp := map[uint64][]span{}
	var ops []span
	for _, s := range spans {
		if s.Layer == layerKadop {
			ops = append(ops, s)
		} else {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	out := make(map[uint64]time.Duration, len(ops))
	for _, op := range ops {
		out[op.ID] = selfTime(op, byOp[op.ID])
	}
	return out
}
