package kadop

// One benchmark per table and figure of the paper's evaluation, each
// wrapping the corresponding experiment runner at a bench-friendly
// scale. `go test -bench=. -benchmem` regenerates every result;
// cmd/kadop-bench runs the same experiments at configurable scales and
// prints the paper-style tables.

import (
	"testing"

	"kadop/internal/experiments"
)

// benchExperiment runs one entry of the experiment table per
// iteration at the given scale.
func benchExperiment(b *testing.B, name string, s experiments.Scale) {
	exps, ok := experiments.Select(name)
	if !ok {
		b.Fatalf("no experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		if _, err := exps[0].Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Indexing regenerates Figure 2: publishing time against
// corpus size, network size, publisher count, the DPP and the store.
func BenchmarkFig2Indexing(b *testing.B) {
	benchExperiment(b, "fig2", experiments.Scale{Records: []int{300, 600}, Peers: 16, Seed: 1})
}

// BenchmarkFig3QueryResponse regenerates Figure 3: index-query response
// time with and without the DPP.
func BenchmarkFig3QueryResponse(b *testing.B) {
	benchExperiment(b, "fig3", experiments.Scale{Records: []int{1500}, Peers: 12, Seed: 2})
}

// BenchmarkTrafficWorkload regenerates the Section 4.3 traffic
// measurement: the 50-query workload over growing indexed volumes.
func BenchmarkTrafficWorkload(b *testing.B) {
	benchExperiment(b, "traffic", experiments.Scale{Records: []int{400, 800}, Peers: 10, Seed: 3})
}

// BenchmarkTable1DyadicCover regenerates Table 1: average dyadic-cover
// sizes over the five dataset shapes.
func BenchmarkTable1DyadicCover(b *testing.B) {
	benchExperiment(b, "table1", experiments.Scale{Seed: 4})
}

// BenchmarkFilterSensitivity regenerates the Section 5.4 sensitivity
// analysis of the structural Bloom filters.
func BenchmarkFilterSensitivity(b *testing.B) {
	benchExperiment(b, "sensitivity", experiments.Scale{Records: []int{2000}, Seed: 5})
}

// BenchmarkFig7Strategies regenerates Figure 7(a,b,c): normalized data
// volume of the Bloom-reducer strategies.
func BenchmarkFig7Strategies(b *testing.B) {
	for _, variant := range []string{"a", "b", "c"} {
		b.Run(variant, func(b *testing.B) {
			benchExperiment(b, "fig7"+variant, experiments.Scale{Records: []int{800}, Peers: 10, Seed: 6})
		})
	}
}

// BenchmarkFig9Fundex regenerates Figure 9: Fundex query processing
// over an intensional collection.
func BenchmarkFig9Fundex(b *testing.B) {
	benchExperiment(b, "fig9", experiments.Scale{Records: []int{200}, Peers: 8, Seed: 7})
}

// BenchmarkStoreAblation regenerates the Section 3 store comparison
// (B+-tree vs PAST-like naive store vs memory).
func BenchmarkStoreAblation(b *testing.B) {
	benchExperiment(b, "store", experiments.Scale{Records: []int{60}, Seed: 8})
}

// BenchmarkSplitAblation regenerates the Section 4.1 ordered-vs-random
// DPP split comparison.
func BenchmarkSplitAblation(b *testing.B) {
	benchExperiment(b, "split", experiments.Scale{Records: []int{600}, Peers: 10, Seed: 9})
}

// BenchmarkPublishQuery is an end-to-end micro-benchmark of the public
// API: one publish plus one query per iteration on a standing cluster.
func BenchmarkPublishQuery(b *testing.B) {
	c, err := NewSimCluster(6, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	q := MustParseQuery(`//article//author`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Peer(i%6).PublishXML([]byte(facadeDoc), "bench.xml"); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Peer((i+3)%6).Query(q, QueryOptions{IndexOnly: true}); err != nil {
			b.Fatal(err)
		}
	}
}
