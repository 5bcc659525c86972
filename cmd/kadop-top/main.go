// Command kadop-top renders a cluster-wide load report from the admin
// endpoints of a set of KadoP peers: per-peer bytes/blocks/appends, a
// load-imbalance summary (max/mean ratio and Gini coefficient over
// bytes served), cluster-wide hot terms, and latency quantiles merged
// across every peer's histograms.
//
//	kadop-top 127.0.0.1:6060 127.0.0.1:6061 127.0.0.1:6062
//	kadop-top -interval 5s 127.0.0.1:6060 127.0.0.1:6061
//
// With -selftest N it instead spins up an N-peer in-process cluster,
// publishes a small skewed corpus, runs queries, scrapes itself, and
// exits non-zero unless the scrape parses and returns samples — the CI
// smoke test for the whole observability plane.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"kadop"
	"kadop/internal/admin"
	"kadop/internal/experiments"
	"kadop/internal/obs/cluster"
	"kadop/internal/pattern"
	"kadop/internal/workload"
)

func main() {
	var (
		selftest = flag.Int("selftest", 0, "spin up an N-peer in-process cluster, scrape it, and exit (CI smoke mode)")
		topK     = flag.Int("top", 10, "hot terms to show cluster-wide")
		interval = flag.Duration("interval", 0, "re-scrape and re-render every interval (0 = once)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout")
	)
	flag.Parse()

	if *selftest > 0 {
		if err := runSelftest(*selftest, *topK); err != nil {
			fmt.Fprintln(os.Stderr, "kadop-top: selftest:", err)
			os.Exit(1)
		}
		return
	}

	targets := flag.Args()
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "usage: kadop-top [-interval 5s] PEER-ADDR...\n       kadop-top -selftest 4")
		os.Exit(2)
	}
	for {
		if err := scrapeOnce(targets, *topK, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "kadop-top:", err)
			if *interval == 0 {
				os.Exit(1)
			}
		}
		if *interval == 0 {
			return
		}
		time.Sleep(*interval)
	}
}

func scrapeOnce(targets []string, topK int, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout*time.Duration(len(targets))+timeout)
	defer cancel()
	var sc cluster.Scraper
	scrapes, err := sc.ScrapeAll(ctx, targets)
	if err != nil {
		return err
	}
	fmt.Print(cluster.BuildReport(scrapes, topK).Format())
	return nil
}

// runSelftest exercises the full plane in-process: simulated cluster,
// skewed publish, real queries, real HTTP scrapes of every peer's
// admin endpoint, and a strict parse of the exposition output.
func runSelftest(peers, topK int) error {
	c, err := experiments.NewCluster(experiments.ClusterOptions{
		Peers: peers,
		Cfg:   kadop.Config{UseDPP: true, DPP: kadop.DPPOptions{BlockSize: 128}},
	})
	if err != nil {
		return err
	}
	defer c.Close()

	docs := workload.DBLP{Seed: 1, Records: 150}.Documents()
	if _, err := c.PublishAll(docs, 4, 1); err != nil {
		return err
	}
	q := pattern.MustParse(experiments.Fig3Query)
	for i := 0; i < 3; i++ {
		if _, err := c.NonOwnerPeer(q).Query(q, kadop.QueryOptions{}); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}

	targets := make([]string, 0, peers)
	for _, nd := range c.Nodes {
		addr, stop, err := admin.Serve("127.0.0.1:0", admin.Options{
			Collector: nd.Metrics(),
			Node:      nd,
		})
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
	rep := cluster.BuildReport(scrapes, topK)
	if rep.SampleCount == 0 {
		return fmt.Errorf("scrape returned no samples")
	}
	var served int64
	for _, p := range rep.Peers {
		served += p.BytesServed
	}
	if served == 0 {
		return fmt.Errorf("no peer reported serving bytes — load accounting is dead")
	}
	fmt.Print(rep.Format())
	fmt.Printf("selftest ok: %d peers, %d samples, %s served\n",
		len(rep.Peers), rep.SampleCount, fmtSelftestBytes(served))
	return nil
}

func fmtSelftestBytes(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	}
	if n >= 1<<10 {
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
