package kadop

import (
	"fmt"
	"sync"
	"testing"

	"kadop/internal/dpp"
	"kadop/internal/pattern"
)

// TestConcurrentPublishAndQuery runs publishers and query clients
// simultaneously against one deployment. Queries may observe any prefix
// of the publications (the index grows concurrently), but they must
// never fail, and answers must always be a subset of the final state.
func TestConcurrentPublishAndQuery(t *testing.T) {
	for _, cfg := range []Config{{}, {UseDPP: true, DPP: dpp.Options{BlockSize: 16}}} {
		name := "plain"
		if cfg.UseDPP {
			name = "dpp"
		}
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 8, cfg)
			const docsTotal = 60
			var wg sync.WaitGroup
			// Two publishers.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < docsTotal; i += 2 {
						doc := fmt.Sprintf(
							`<dblp><article><author>Writer %d</author><title>Title %d</title></article></dblp>`, i, i)
						if _, err := c.peers[w].PublishXML([]byte(doc), fmt.Sprintf("d%d.xml", i)); err != nil {
							t.Errorf("publish %d: %v", i, err)
							return
						}
					}
				}(w)
			}
			// Three query clients issuing queries while publishing runs.
			q := pattern.MustParse(`//article//author`)
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						res, err := c.peers[3+w].Query(q, QueryOptions{IndexOnly: true})
						if err != nil {
							t.Errorf("query client %d: %v", w, err)
							return
						}
						if res.IndexMatches > docsTotal {
							t.Errorf("query client %d: %d matches > %d published", w, res.IndexMatches, docsTotal)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			// Quiesced: the final query sees everything exactly once.
			res, err := c.peers[7].Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != docsTotal {
				t.Fatalf("final matches = %d, want %d", len(res.Matches), docsTotal)
			}
		})
	}
}

// TestConcurrentStrategyQueries runs all strategies at once against a
// static index, on plain lists and composed with the DPP (AutoStrategy
// over the DPP is what the benchmark's query_wan workload runs);
// sessions must not cross-talk.
func TestConcurrentStrategyQueries(t *testing.T) {
	for _, cfg := range []Config{{}, {UseDPP: true, DPP: dpp.Options{BlockSize: 8}}} {
		name := "plain"
		if cfg.UseDPP {
			name = "dpp"
		}
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 8, cfg)
			var docs []string
			for i := 0; i < 40; i++ {
				author := "Plain Person"
				if i%13 == 0 {
					author = "Jeffrey Ullman"
				}
				docs = append(docs, fmt.Sprintf(
					`<dblp><article><author>%s</author><title>T%d</title></article></dblp>`, author, i))
			}
			truth := publishAll(t, c, docs)
			q := pattern.MustParse(`//article//author[. contains "Ullman"]`)
			want := len(truth(q))

			var wg sync.WaitGroup
			strategies := []Strategy{Conventional, ABReducer, DBReducer, BloomReducer, SubQueryReducer, AutoStrategy}
			for round := 0; round < 3; round++ {
				for si, s := range strategies {
					wg.Add(1)
					go func(round, si int, s Strategy) {
						defer wg.Done()
						res, err := c.peers[(round+si)%len(c.peers)].Query(q, QueryOptions{Strategy: s})
						if err != nil {
							t.Errorf("round %d strategy %v: %v", round, s, err)
							return
						}
						if len(res.Matches) != want {
							t.Errorf("round %d strategy %v: %d matches, want %d", round, s, len(res.Matches), want)
						}
					}(round, si, s)
				}
			}
			wg.Wait()
		})
	}
}
