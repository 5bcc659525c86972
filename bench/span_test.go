package main

import (
	"testing"
	"time"
)

func sp(id, parent, op uint64, layer string, start, end int64) span {
	return span{ID: id, Parent: parent, Op: op, Layer: layer, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, 1, layerKadop, 100, 200)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one nested child", []span{sp(2, 1, 1, layerDHT, 110, 150)}, 60},
		{"disjoint children", []span{sp(2, 1, 1, layerDHT, 110, 120), sp(3, 1, 1, layerDHT, 150, 170)}, 70},
		{"overlapping children count once", []span{sp(2, 1, 1, layerDHT, 110, 150), sp(3, 1, 1, layerStore, 130, 170)}, 40},
		{"grandchild inside a child adds nothing", []span{sp(2, 1, 1, layerDHT, 110, 150), sp(3, 2, 1, layerStore, 120, 140)}, 60},
		{"child clipped to the parent", []span{sp(2, 1, 1, layerDHT, 50, 120), sp(3, 1, 1, layerStore, 190, 400)}, 70},
		{"child outside the parent", []span{sp(2, 1, 1, layerStore, 300, 400)}, 100},
		{"children cover everything", []span{sp(2, 1, 1, layerDHT, 100, 160), sp(3, 1, 1, layerDHT, 150, 200)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOpSelfTimesGroupsByOperation(t *testing.T) {
	spans := []span{
		sp(1, 0, 1, layerKadop, 0, 100),
		sp(2, 1, 1, layerDHT, 10, 40),
		sp(3, 2, 1, layerStore, 20, 30),
		sp(4, 0, 4, layerKadop, 200, 260),
		sp(5, 4, 4, layerStore, 200, 250),
	}
	self := opSelfTimes(spans)
	if self[1] != 70 || self[4] != 10 {
		t.Errorf("self times %v, want op1=70 op4=10", self)
	}
}

func TestRecorderParentsStoreSpansToTheOpenCall(t *testing.T) {
	r := newRecorder()
	if r.begin(layerKadop, "op:query", "a", "") != nil {
		t.Fatal("recorder records while off")
	}
	r.on.Store(true)
	op := r.begin(layerKadop, "op:query", "a", "")
	local := r.begin(layerStore, "store:read", "a", "") // no call open towards a
	call := r.begin(layerDHT, "dht:call", "a", "b")
	remote := r.begin(layerStore, "store:read", "b", "")
	remote.end(7)
	call.end(0)
	after := r.begin(layerStore, "store:read", "b", "") // the call has ended
	after.end(0)
	local.end(0)
	op.end(0)

	byID := map[uint64]span{}
	for _, s := range r.snapshot() {
		byID[s.ID] = s
	}
	if len(byID) != 5 {
		t.Fatalf("%d spans recorded, want 5", len(byID))
	}
	opID := op.s.ID
	if got := byID[remote.s.ID]; got.Parent != call.s.ID || got.Op != opID || got.N != 7 {
		t.Errorf("remote store span %+v: want parent %d (the open call), op %d, n 7", got, call.s.ID, opID)
	}
	for _, o := range []*openSpan{local, call, after} {
		if got := byID[o.s.ID]; got.Parent != opID || got.Op != opID {
			t.Errorf("span %s %+v: want parent and op %d", got.Name, got, opID)
		}
	}
	if next := r.begin(layerStore, "store:read", "a", ""); next.s.Op != 0 {
		t.Errorf("span after the operation ended still belongs to op %d", next.s.Op)
	}
}
