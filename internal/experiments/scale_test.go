package experiments

import (
	"testing"

	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/workload"
)

// TestPaperScaleNetwork runs a deployment at the paper's network scale
// (200 peers, the smaller of its two settings) end to end: bootstrap,
// publish from many peers, query from several others. It demonstrates
// that the simulated network genuinely operates at the sizes the
// Figure 2/3 sweeps can be scaled to with kadop-bench flags.
func TestPaperScaleNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("200-peer cluster; skipped in -short")
	}
	const peers = 200
	cl, err := NewCluster(ClusterOptions{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	docs := workload.DBLP{Seed: 42, Records: 500}.Documents()
	if _, err := cl.PublishAll(docs, 25, 1); err != nil {
		t.Fatal(err)
	}

	q := pattern.MustParse(`//article//author[. contains "Ullman"]`)
	var want int
	for i := 0; i < 5; i++ {
		res, err := cl.Peers[peers-1-i*13].Query(q, kadop.QueryOptions{})
		if err != nil {
			t.Fatalf("query from peer %d: %v", peers-1-i*13, err)
		}
		if i == 0 {
			want = len(res.Matches)
			if want == 0 {
				t.Fatal("no matches at paper scale")
			}
		} else if len(res.Matches) != want {
			t.Fatalf("peer %d sees %d matches, first saw %d", peers-1-i*13, len(res.Matches), want)
		}
	}

	// Routing state is bounded: k-buckets cap contacts per peer.
	for i := 0; i < peers; i += 37 {
		if size := cl.Nodes[i].Table().Size(); size == 0 {
			t.Fatalf("peer %d has an empty routing table", i)
		} else if size > 8*160 {
			t.Fatalf("peer %d routing table exceeds bucket bounds: %d", i, size)
		}
	}

	// Index load is spread: no peer holds everything.
	max, total := 0, 0
	for _, nd := range cl.Nodes {
		terms, err := nd.Store().Terms()
		if err != nil {
			t.Fatal(err)
		}
		n := len(terms)
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		t.Fatal("no index entries anywhere")
	}
	if float64(max) > 0.2*float64(total) {
		t.Fatalf("one peer holds %d of %d term slices; index is not spread", max, total)
	}
}
