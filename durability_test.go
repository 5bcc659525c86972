package kadop

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// TestPeerRestartDurability is the end-to-end durability scenario: a
// TCP peer with a data directory publishes documents, stops, restarts
// from the same directory, and serves identical query results without a
// republish — including an append made by another peer while it was
// down, healed by the push/pull repair pair on rejoin.
func TestPeerRestartDurability(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "p2")
	// Replication 2 with retries: appends survive one peer being down,
	// which is what makes publish-while-down and repair-on-rejoin
	// meaningful.
	dcfg := DHTConfig{
		Replication: 2,
		Retry:       RetryPolicy{Attempts: 2, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
	}
	cfg := Config{DHT: dcfg}

	p1, err := NewTCPPeer("127.0.0.1:0", 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	cfg2 := cfg
	cfg2.DataDir = dataDir
	p2, err := NewTCPPeer("127.0.0.1:0", 2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p2Addr := p2.Node().Self().Addr
	if err := Join(p2, p1.Node().Self().Addr); err != nil {
		t.Fatal(err)
	}
	if err := Join(p1, ""); err != nil {
		t.Fatal(err)
	}

	// p2 publishes durable documents.
	for i := 0; i < 4; i++ {
		doc := fmt.Sprintf(`<dblp><article><author>Serge Abiteboul</author><title>t%d</title></article></dblp>`, i)
		if _, err := p2.PublishXML([]byte(doc), fmt.Sprintf("p2-d%d.xml", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The query's wildcard step sends it to phase two, so the answers
	// come from the documents p2 serves, not from the index alone.
	q := MustParseQuery(`//article/*[. contains "Abiteboul"]`)
	res, err := p1.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := len(res.Matches)
	if baseline != 4 {
		t.Fatalf("baseline matches = %d, want 4", baseline)
	}

	// Stop p2. Drop its contact from p1's routing table the way the
	// fault-tolerant RPC layer would after a failed call, so the
	// while-down publish routes around the dead peer deterministically.
	if err := p2.Close(); err != nil {
		t.Fatalf("close p2: %v", err)
	}
	p1.Node().Table().Remove(p2.Node().Self().ID)

	// p1 publishes while p2 is down; with p2 out of the owner sets the
	// appends land on the surviving replica.
	if _, err := p1.PublishXML(
		[]byte(`<dblp><article><author>Serge Abiteboul</author><title>while-down</title></article></dblp>`),
		"p1-d0.xml"); err != nil {
		t.Fatalf("publish while p2 down: %v", err)
	}

	// Restart p2 from the same data directory, on the same address (so
	// its DHT identity and key ownership are unchanged).
	p2r, err := NewTCPPeer(p2Addr, 2, cfg2)
	if err != nil {
		t.Fatalf("restart p2: %v", err)
	}
	defer p2r.Close()
	if got := p2r.DocumentCount(); got != 4 {
		t.Fatalf("restarted peer reloaded %d documents, want 4", got)
	}
	if err := Join(p2r, p1.Node().Self().Addr); err != nil {
		t.Fatalf("rejoin p2: %v", err)
	}
	if err := p2r.Reannounce(); err != nil {
		t.Fatalf("reannounce: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Heal both directions: p2 pulls appends its local terms missed;
	// p1 pushes keys p2 should own but has no local copy of.
	if _, err := p2r.Resync(ctx); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if _, err := p1.Node().RepairOnce(ctx); err != nil {
		t.Fatalf("repair push: %v", err)
	}

	// Old documents answer identically, plus the while-down publish —
	// with no republish anywhere.
	res, err = p1.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != baseline+1 {
		t.Fatalf("matches after restart = %d, want %d", len(res.Matches), baseline+1)
	}
	// And the restarted peer itself can answer queries (phase two runs
	// on its replayed documents).
	res, err = p2r.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != baseline+1 {
		t.Fatalf("matches queried at restarted peer = %d, want %d", len(res.Matches), baseline+1)
	}
}

// TestPeerRestartIdempotent checks a durable peer restarted with no
// downtime writes serves exactly its pre-shutdown state, with and
// without DPP: with one-posting blocks every repeated term overflows,
// so its blocks are found again only through the root log.
func TestPeerRestartIdempotent(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"dpp", Config{UseDPP: true, DPP: DPPOptions{BlockSize: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.DataDir = filepath.Join(t.TempDir(), "solo")
			p, err := NewTCPPeer("127.0.0.1:0", 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			addr := p.Node().Self().Addr
			if err := Join(p, ""); err != nil {
				t.Fatal(err)
			}
			if _, err := p.PublishXML([]byte(facadeDoc), "dblp.xml"); err != nil {
				t.Fatal(err)
			}
			q := MustParseQuery(`//article//title`)
			res, err := p.Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := len(res.Matches)
			if want != 2 {
				t.Fatalf("matches before restart = %d, want 2", want)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			pr, err := NewTCPPeer(addr, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Close()
			if err := Join(pr, ""); err != nil {
				t.Fatal(err)
			}
			res, err = pr.Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != want {
				t.Fatalf("matches after restart = %d, want %d", len(res.Matches), want)
			}
		})
	}
}
