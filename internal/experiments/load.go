package experiments

import (
	"context"
	"fmt"
	"time"

	"kadop/internal/admin"
	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/obs/cluster"
	"kadop/internal/pattern"
)

// The load experiment repeats each hot-term query loadRepeats times,
// splits lists into DPP blocks of loadBlockSize postings when the DPP
// is on, and reports the loadTopK cluster-wide hot terms. The DPP
// matters here because popular terms concentrate posting storage and
// serving on their home peers; splitting the lists into distributed
// blocks spreads that load over the network.
const (
	loadRepeats   = 4
	loadBlockSize = 128
	loadTopK      = 8
)

// hotQueries are the paper's stress query plus two overlapping
// patterns: every one touches the giant author/article/title lists, so
// they drive the load skew and give the block cache shared terms to
// reuse.
var hotQueries = []string{
	Fig3Query,
	`//article//author`,
	`//article//title`,
}

// loadResult holds both variants' cluster reports. The reports are
// built by scraping real /metrics + /debug/load admin endpoints with
// the same code path kadop-top uses, so the experiment doubles as an
// end-to-end check of the observability plane.
type loadResult struct {
	Off *cluster.Report // conventional: whole lists at their home peers
	On  *cluster.Report // DPP: lists split into distributed blocks
	// Adaptive is the closed-loop variant: hot lists start inline at
	// their home peers and the replication controllers engage mid-run.
	Adaptive *adaptiveResult
}

// runLoad measures per-peer serving load under a skewed DBLP workload
// with the DPP off and on, then runs the adaptive-replication phase,
// whose bounds gate the run.
func runLoad(s Scale) (*loadResult, error) {
	off, err := runLoadVariant(s, false)
	if err != nil {
		return nil, err
	}
	on, err := runLoadVariant(s, true)
	if err != nil {
		return nil, err
	}
	ad, err := runLoadAdaptive(s)
	return &loadResult{Off: off, On: on, Adaptive: ad}, err
}

func runLoadVariant(s Scale, useDPP bool) (rep *cluster.Report, err error) {
	cfg := kadop.Config{}
	if useDPP {
		cfg.UseDPP = true
		cfg.DPP = dpp.Options{BlockSize: loadBlockSize}
	}
	err = withCluster(ClusterOptions{Peers: s.Peers, Cfg: cfg}, s.dblp(s.records()), func(cl *Cluster) error {
		for _, qs := range hotQueries {
			q := pattern.MustParse(qs)
			peer := cl.NonOwnerPeer(q)
			for i := 0; i < loadRepeats; i++ {
				if _, err := peer.Query(q, kadop.QueryOptions{IndexOnly: true}); err != nil {
					return fmt.Errorf("query %s: %w", qs, err)
				}
			}
		}
		// Scrape the peers the way kadop-top does: real HTTP endpoints,
		// strict exposition parsing.
		targets := make([]string, 0, len(cl.Nodes))
		for _, nd := range cl.Nodes {
			addr, stop, err := admin.Serve("127.0.0.1:0", admin.Options{Collector: nd.Metrics(), Node: nd})
			if err != nil {
				return fmt.Errorf("admin endpoint: %w", err)
			}
			defer stop()
			targets = append(targets, addr)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var sc cluster.Scraper
		scrapes, err := sc.ScrapeAll(ctx, targets)
		if err != nil {
			return err
		}
		rep = cluster.BuildReport(scrapes, loadTopK)
		return nil
	})
	return rep, err
}

func (r *loadResult) report() ([]section, []bound) {
	verdict := "DPP flattens the serving load, as in the paper's Section 4 motivation."
	if r.On.Gini >= r.Off.Gini {
		verdict = "WARNING: DPP did not flatten the load at this scale."
	}
	a := r.Adaptive
	return []section{
			{title: "=== load distribution (per-peer bytes served, skewed workload) ==="},
			{title: "--- DPP off: whole posting lists at their home peers ---\n" + r.Off.Format()},
			{title: "--- DPP on: lists split into distributed blocks ---\n" + r.On.Format()},
			{title: fmt.Sprintf("imbalance summary: max/mean %.2f -> %.2f, Gini %.3f -> %.3f (DPP off -> on)\n%s",
				r.Off.MaxMeanRatio, r.On.MaxMeanRatio, r.Off.Gini, r.On.Gini, verdict)},
			{"--- adaptive: hot-term replication controller engaged mid-run ---",
				[]string{"phase", "queries", "Gini", "p99"},
				[][]string{
					{"before", itoa(a.Queries), fmt.Sprintf("%.3f", a.GiniBefore), ms(a.P99Before) + "ms"},
					{"after", itoa(a.Queries), fmt.Sprintf("%.3f", a.GiniAfter), ms(a.P99After) + "ms"},
				}},
		},
		a.bounds()
}
