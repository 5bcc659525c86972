package dpp

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dpp.json")
	m := &Manager{persistPath: path, roots: map[string]*Root{}, next: 7}
	m.roots["l:a"] = &Root{
		Term: "l:a", Ordered: true,
		Blocks: []BlockRef{{
			Lo:  sid.Posting{Peer: 1, Doc: 2, SID: sid.SID{Start: 1, End: 2, Level: 1}},
			Hi:  sid.Posting{Peer: 1, Doc: 9, SID: sid.SID{Start: 5, End: 6, Level: 1}},
			Key: "overflow:1:l:a", Owner: "127.0.0.1:9999", Count: 42, Gen: 3,
			Types: []string{"dblp"},
		}},
	}
	m.roots["w:x"] = &Root{Term: "w:x", Gen: 5, Types: []string{"dblp"}} // inline
	if err := m.save(); err != nil {
		t.Fatal(err)
	}

	m2 := &Manager{persistPath: path, roots: map[string]*Root{}}
	if err := m2.load(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2.roots, m.roots) {
		t.Fatalf("roots did not round-trip: %+v vs %+v", m2.roots, m.roots)
	}
	if in := m2.roots["w:x"]; in == nil || in.Gen != 5 || !reflect.DeepEqual(in.Types, []string{"dblp"}) {
		t.Fatal("inline metadata did not round-trip")
	}
	if m2.next != 7 {
		t.Fatalf("next = %d, want 7", m2.next)
	}
}

func TestPersistMissingFileIsEmpty(t *testing.T) {
	m := &Manager{persistPath: filepath.Join(t.TempDir(), "absent.json"), roots: map[string]*Root{}}
	if err := m.load(); err != nil {
		t.Fatalf("load of missing file: %v", err)
	}
	if len(m.roots) != 0 || m.next != 0 {
		t.Fatal("missing file should load as empty state")
	}
}

func TestPersistCorruptFileFailsLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := &Manager{persistPath: path, roots: map[string]*Root{}}
	if err := m.load(); err == nil {
		t.Fatal("corrupt state file should fail load")
	}
}

// parentLayout is a state file as earlier versions wrote it: the roots
// of overflowed terms, and every term's inline types and generation —
// kept even for l:a, which has since overflowed. The two %q are the
// addresses of the peers holding l:a's blocks.
const parentLayout = `{"roots":{"l:a":{"Term":"l:a","Ordered":true,"Blocks":[` +
	`{"Lo":{"Peer":1,"Doc":0,"SID":{"Start":1,"End":2,"Level":2}},"Hi":{"Peer":1,"Doc":1,"SID":{"Start":1,"End":2,"Level":2}},"Key":"overflow:1:l:a","Owner":%q,"Count":3,"Gen":0,"Types":["dblp"],"Replicas":null},` +
	`{"Lo":{"Peer":1,"Doc":1,"SID":{"Start":3,"End":4,"Level":2}},"Hi":{"Peer":1,"Doc":2,"SID":{"Start":3,"End":4,"Level":2}},"Key":"overflow:2:l:a","Owner":%q,"Count":3,"Gen":0,"Types":["dblp"],"Replicas":null}],` +
	`"Count":0,"Lo":{"Peer":0,"Doc":0,"SID":{"Start":0,"End":0,"Level":0}},"Hi":{"Peer":0,"Doc":0,"SID":{"Start":0,"End":0,"Level":0}},"Gen":0,"Types":["dblp"],"Replicas":null,"Home":""}},` +
	`"inline_types":{"l:a":["dblp"],"w:x":["dblp"]},"inline_gen":{"l:a":1,"w:x":1},"next":2}`

// TestPersistLoadsParentLayout restarts a home peer's manager on a state
// file in the earlier layout: the upgraded peer still finds the blocks
// of its overflowed term, and its inline term's generation and types.
func TestPersistLoadsParentLayout(t *testing.T) {
	c := newCluster(t, 4, Options{})
	home := homeOf(t, c, "l:a")
	want := seqPostings(6, 2)
	a, b := c.nodes[(home+1)%4], c.nodes[(home+2)%4]
	if err := a.Store().Append("overflow:1:l:a", want[:3]); err != nil {
		t.Fatal(err)
	}
	if err := b.Store().Append("overflow:2:l:a", want[3:]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dpp.json")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(parentLayout, a.Self().Addr, b.Self().Addr)), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(c.nodes[home], Options{PersistPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if in := m.roots["w:x"]; in == nil || len(in.Blocks) != 0 || in.Gen != 1 || !reflect.DeepEqual(in.Types, []string{"dblp"}) {
		t.Fatalf("inline term w:x loaded as %+v", in)
	}
	if r := m.roots["l:a"]; r == nil || len(r.Blocks) != 2 || r.Gen < 1 || m.next != 2 {
		t.Fatalf("overflowed term l:a loaded as %+v, next %d", r, m.next)
	}
	s, plan, err := c.managers[(home+3)%4].Fetch("l:a", FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := postings.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Blocks != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("fetched %d postings from %d blocks, want %d from 2", len(got), plan.Blocks, len(want))
	}
}
