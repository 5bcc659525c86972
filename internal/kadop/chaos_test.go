package kadop

// Query-level chaos tests: a replicated KadoP deployment under seeded
// message loss keeps answering queries, and after a peer kill every
// query either completes or returns an explicitly-marked partial
// result within its deadline — it never hangs and never silently drops
// answers.

import (
	"context"
	"testing"
	"time"

	"kadop/internal/dht"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/twigjoin"
)

// newChaosCluster is newCluster with replication and retries enabled on
// the DHT nodes.
func newChaosCluster(t testing.TB, n int, cfg Config) *cluster {
	t.Helper()
	dcfg := dht.Config{
		Replication: 2,
		Retry: dht.RetryPolicy{
			Attempts:    6,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  8 * time.Millisecond,
		},
		RPCTimeout: 2 * time.Second,
	}
	c := &cluster{net: dht.NewNetwork()}
	var nodes []*dht.Node
	for i := 0; i < n; i++ {
		node, err := dht.NewNode(c.net.NewEndpoint(), store.NewMem(), dcfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range nodes {
		p, err := NewPeer(nd, sid.PeerID(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.peers = append(c.peers, p)
	}
	for _, p := range c.peers {
		if err := p.Announce(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// matchesSubset reports whether every match in got appears in truth.
func matchesSubset(got, truth []twigjoin.Match) bool {
	seen := map[string]int{}
	for _, m := range truth {
		seen[matchKey(m)]++
	}
	for _, m := range got {
		k := matchKey(m)
		if seen[k] == 0 {
			return false
		}
		seen[k]--
	}
	return true
}

func matchKey(m twigjoin.Match) string {
	s := m.Doc.String()
	for _, p := range m.Postings {
		s += "|" + p.String()
	}
	return s
}

// TestChaosQueryCompletesOrMarksPartial publishes a corpus on a
// replicated cluster, turns on 20% message loss, kills one peer, and
// checks the paper's failure semantics: index answers survive intact
// (the index is replicated and repaired), and full queries either
// complete or return with Incomplete explicitly set, always within the
// deadline.
func TestChaosQueryCompletesOrMarksPartial(t *testing.T) {
	c := newChaosCluster(t, 8, Config{})
	truth := publishAll(t, c, dblpDocs)
	q := pattern.MustParse(`//article//author[. contains "Ullman"]`)
	want := truth(q)
	if len(want) == 0 {
		t.Fatal("bad fixture: ground truth is empty")
	}

	// Baseline on the healthy cluster.
	querier := c.peers[len(c.peers)-1]
	res, err := querier.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := append([]twigjoin.Match(nil), res.Matches...); !matchesSubset(got, want) || len(got) != len(want) {
		t.Fatalf("baseline query: %d matches, want %d", len(res.Matches), len(want))
	}
	baselineDocs := res.Docs

	// Chaos on: 20% loss plus duplication. Retries must absorb it — the
	// query still completes exactly.
	c.net.SetFaults(dht.Faults{Seed: 23, DropProb: 0.20, DupProb: 0.05})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	res, err = querier.QueryContext(ctx, q, QueryOptions{})
	cancel()
	if err != nil {
		t.Fatalf("query under 20%% loss: %v", err)
	}
	if res.Incomplete || len(res.Matches) != len(want) {
		t.Fatalf("query under loss: %d matches (incomplete=%v), want %d complete", len(res.Matches), res.Incomplete, len(want))
	}

	// Kill one document peer and repair the index from the survivors.
	victim := c.peers[2]
	if err := victim.Node().Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range c.peers {
		if i == 2 {
			continue
		}
		rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
		p.Node().RepairOnce(rctx)
		rcancel()
	}

	// Phase one survives in full: the candidate documents are identical,
	// served from the surviving replicas.
	ctx, cancel = context.WithTimeout(context.Background(), 60*time.Second)
	res, err = querier.QueryContext(ctx, q, QueryOptions{IndexOnly: true})
	cancel()
	if err != nil {
		t.Fatalf("index query after kill: %v", err)
	}
	if len(res.Docs) != len(baselineDocs) {
		t.Fatalf("index answers lost with the peer: %d docs, want %d", len(res.Docs), len(baselineDocs))
	}

	// A query without wildcards is answered by the index join, which
	// survived in full: complete, the oracle's answers, no phase-two
	// request. The killed peer held none of its documents, so every
	// document peer it confirms with answers.
	answerCalls := countAnswerCalls(c)
	ctx, cancel = context.WithTimeout(context.Background(), 60*time.Second)
	res, err = querier.QueryContext(ctx, q, QueryOptions{AllowPartial: true})
	cancel()
	if err != nil {
		t.Fatalf("exact query after kill: %v", err)
	}
	checkIndexAnswered(t, res, want, answerCalls.Load())

	// Phase two with AllowPartial, driven by the same query with its
	// article step relaxed to a wildcard: the killed peer's documents
	// cannot answer, so the result must either be complete (victim held
	// no answers) or carry the explicit incomplete marker — and it must
	// return within the deadline either way.
	q = pattern.MustParse(`//*//author[. contains "Ullman"]`)
	if want = truth(q); len(want) == 0 {
		t.Fatal("bad fixture: relaxed ground truth is empty")
	}
	deadline := 60 * time.Second
	start := time.Now()
	ctx, cancel = context.WithTimeout(context.Background(), deadline)
	res, err = querier.QueryContext(ctx, q, QueryOptions{AllowPartial: true})
	cancel()
	if took := time.Since(start); took >= deadline {
		t.Fatalf("partial query overran its deadline (%v)", took)
	}
	if err != nil {
		t.Fatalf("partial query after kill: %v", err)
	}
	if !matchesSubset(res.Matches, want) {
		t.Fatal("partial query invented matches not in the ground truth")
	}
	if len(res.Matches) < len(want) && !res.Incomplete {
		t.Fatalf("query lost %d matches without marking the result incomplete",
			len(want)-len(res.Matches))
	}
	t.Logf("relaxed query after kill: %d of %d answers, incomplete=%v, %d failed peers", len(res.Matches), len(want), res.Incomplete, res.FailedPeers)
	if res.Incomplete && res.FailedPeers == 0 {
		t.Fatal("incomplete result must report its failed peers")
	}

	// Without AllowPartial the same query must fail loudly, not hang,
	// when the victim actually held answers.
	if res.Incomplete {
		ctx, cancel = context.WithTimeout(context.Background(), deadline)
		_, err = querier.QueryContext(ctx, q, QueryOptions{})
		cancel()
		if err == nil {
			t.Fatal("strict query against a dead document peer should error")
		}
	}
}
