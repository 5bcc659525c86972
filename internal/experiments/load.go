package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"kadop/internal/admin"
	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/obs/cluster"
	"kadop/internal/pattern"
	"kadop/internal/workload"
)

// LoadOptions scale the load-distribution experiment: per-peer bytes
// served under a skewed workload, with and without the DPP. The paper
// motivates the DPP exactly here — popular terms concentrate posting
// storage and serving on their home peers; splitting the lists into
// distributed blocks spreads that load over the network.
type LoadOptions struct {
	Records   int
	Peers     int
	Queries   int // repetitions of each hot-term query
	BlockSize int // DPP block bound (postings)
	TopK      int // cluster-wide hot terms reported
	Seed      int64
}

func (o LoadOptions) defaults() LoadOptions {
	if o.Records <= 0 {
		o.Records = 300
	}
	if o.Peers <= 0 {
		o.Peers = 12
	}
	if o.Queries <= 0 {
		o.Queries = 4
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 128
	}
	if o.TopK <= 0 {
		o.TopK = 8
	}
	return o
}

// loadQueries are the hot-term patterns driving the skew: every one
// touches the giant author/article/title lists.
var loadQueries = []string{
	Fig3Query,
	`//article//author`,
	`//article//title`,
}

// LoadResult holds both variants' cluster reports. The reports are
// built by scraping real /metrics + /debug/load admin endpoints with
// the same code path kadop-top uses, so the experiment doubles as an
// end-to-end check of the observability plane.
type LoadResult struct {
	Off *cluster.Report // conventional: whole lists at their home peers
	On  *cluster.Report // DPP: lists split into distributed blocks
	// Adaptive is the closed-loop variant: hot lists start inline at
	// their home peers and the replication controllers engage mid-run.
	Adaptive *AdaptiveResult
}

// RunLoad measures per-peer serving load under a skewed DBLP workload
// with the DPP off and on, then runs the adaptive-replication phase.
// It returns an error (with the result still populated) when the
// adaptive phase promotes nothing or fails to flatten the serving load,
// so the load smoke gate in CI fails loudly if the closed loop
// regresses; the latency tail is reported, not gated (see check).
func RunLoad(o LoadOptions) (*LoadResult, error) {
	o = o.defaults()
	res := &LoadResult{}
	for _, useDPP := range []bool{false, true} {
		rep, err := runLoadVariant(o, useDPP)
		if err != nil {
			return nil, err
		}
		if useDPP {
			res.On = rep
		} else {
			res.Off = rep
		}
	}
	ad, err := runLoadAdaptive(o)
	if err != nil {
		return nil, err
	}
	res.Adaptive = ad
	return res, ad.check(false)
}

func runLoadVariant(o LoadOptions, useDPP bool) (*cluster.Report, error) {
	cfg := kadop.Config{}
	if useDPP {
		cfg.UseDPP = true
		cfg.DPP = dpp.Options{BlockSize: o.BlockSize}
	}
	cl, err := NewCluster(ClusterOptions{Peers: o.Peers, Cfg: cfg})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	docs := workload.DBLP{Seed: o.Seed, Records: o.Records}.Documents()
	if _, err := cl.PublishAll(docs, 4); err != nil {
		return nil, err
	}
	for _, qs := range loadQueries {
		q := pattern.MustParse(qs)
		peer := cl.NonOwnerPeer(q)
		for i := 0; i < o.Queries; i++ {
			if _, err := peer.Query(q, kadop.QueryOptions{IndexOnly: true}); err != nil {
				return nil, fmt.Errorf("query %s: %w", qs, err)
			}
		}
	}

	// Scrape the peers the way kadop-top does: real HTTP endpoints,
	// strict exposition parsing.
	targets := make([]string, 0, o.Peers)
	for _, nd := range cl.Nodes {
		addr, stop, err := admin.Serve("127.0.0.1:0", admin.Options{
			Collector: nd.Metrics(),
			Node:      nd,
		})
		if err != nil {
			return nil, fmt.Errorf("admin endpoint: %w", err)
		}
		defer stop()
		targets = append(targets, addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var sc cluster.Scraper
	scrapes, err := sc.ScrapeAll(ctx, targets)
	if err != nil {
		return nil, err
	}
	return cluster.BuildReport(scrapes, o.TopK), nil
}

// Format renders both variants' load tables and the imbalance
// comparison.
func (r *LoadResult) Format() string {
	var b strings.Builder
	b.WriteString("=== load distribution (per-peer bytes served, skewed workload) ===\n")
	b.WriteString("--- DPP off: whole posting lists at their home peers ---\n")
	b.WriteString(r.Off.Format())
	b.WriteString("--- DPP on: lists split into distributed blocks ---\n")
	b.WriteString(r.On.Format())
	fmt.Fprintf(&b, "imbalance summary: max/mean %.2f -> %.2f, Gini %.3f -> %.3f (DPP off -> on)\n",
		r.Off.MaxMeanRatio, r.On.MaxMeanRatio, r.Off.Gini, r.On.Gini)
	if r.On.Gini < r.Off.Gini {
		b.WriteString("DPP flattens the serving load, as in the paper's Section 4 motivation.\n")
	} else {
		b.WriteString("WARNING: DPP did not flatten the load at this scale.\n")
	}
	if r.Adaptive != nil {
		b.WriteString(r.Adaptive.Format())
	}
	return b.String()
}
