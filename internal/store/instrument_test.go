package store

import (
	"math/rand"
	"testing"

	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

func TestInstrumentedAccountsTraffic(t *testing.T) {
	load := metrics.NewLoad(8)
	st := Instrument(NewMem(), load)

	ps := postings.List{
		{Peer: 1, Doc: 1, SID: sid.SID{Start: 1, End: 2, Level: 1}},
		{Peer: 1, Doc: 1, SID: sid.SID{Start: 3, End: 4, Level: 1}},
		{Peer: 1, Doc: 1, SID: sid.SID{Start: 5, End: 6, Level: 1}},
	}
	if err := st.Append("l:author", ps); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("l:author")
	if err != nil || len(got) != 3 {
		t.Fatalf("get: %v, %d postings", err, len(got))
	}
	// Scan that stops after the first posting serves one.
	if err := st.Scan("l:author", sid.Posting{}, func(sid.Posting) bool { return false }); err != nil {
		t.Fatal(err)
	}

	ex := load.Export()
	if ex.Appends != 1 || ex.AppendPostings != 3 {
		t.Errorf("appends = %d/%d, want 1/3", ex.Appends, ex.AppendPostings)
	}
	if ex.PostingsServed != 3 {
		t.Errorf("postings served = %d, want 3 (full get, early-stopped scan)", ex.PostingsServed)
	}
	if len(ex.HotTerms) != 1 || ex.HotTerms[0].Term != "l:author" {
		t.Errorf("hot terms = %+v", ex.HotTerms)
	}
}

func TestInstrumentNilLoadPassthrough(t *testing.T) {
	m := NewMem()
	if st := Instrument(m, nil); st != Store(m) {
		t.Fatal("nil load must return the store unchanged")
	}
}

// TestMeteredSnapshotChargesLikeLive: over every store stack, the same
// reads charge the same postings to the ledger whether they are served
// live or through a snapshot — one metering type serves both.
func TestMeteredSnapshotChargesLikeLive(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		load := metrics.NewLoad(8)
		st := Instrument(s, load)
		l := randomList(rand.New(rand.NewSource(13)), 40)
		if err := st.Append("l:author", l); err != nil {
			t.Fatal(err)
		}
		// A full Get, a Scan stopped after five postings, and a Count
		// (which serves nothing).
		read := func(r Reader) int64 {
			base := load.Export().PostingsServed
			if _, err := r.Get("l:author"); err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := r.Scan("l:author", sid.MinPosting, func(sid.Posting) bool { n++; return n <= 5 }); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Count("l:author"); err != nil {
				t.Fatal(err)
			}
			return load.Export().PostingsServed - base
		}
		live := read(st)
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if got := read(snap); got != live || live != int64(len(l)+5) {
			t.Fatalf("postings charged: live %d, snapshot %d, want %d both", live, got, len(l)+5)
		}
	})
}
