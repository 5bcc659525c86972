package experiments

import (
	"context"
	"fmt"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/trace"
)

// robustDrops are the message-loss rates swept.
var robustDrops = []float64{0, 0.20}

// robustDHT is the robustness deployment's overlay: two copies of
// every key and retrying RPCs.
var robustDHT = dht.Config{
	Replication: 2,
	Retry:       dht.RetryPolicy{Attempts: 6, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
	RPCTimeout:  5 * time.Second,
}

// robustQuery is Fig3Query with its article step relaxed to a
// wildcard, so every query runs phase two at the document peers, where
// a lost peer or message makes an answer partial.
const robustQuery = `//*//author[. contains "Ullman"]`

// robustRow is one measurement at one loss rate.
type robustRow struct {
	DropProb  float64
	Complete  int   // queries answered exactly after the kill
	Partial   int   // queries returning an explicitly incomplete answer
	Retries   int64 // RPC attempts beyond the first
	Timeouts  int64 // attempts abandoned on a deadline
	Evictions int64 // contacts dropped from routing tables
	Repairs   int64 // keys re-pushed by the repair pass

	RepairBytes int64 // replica-maintenance traffic

	// Phases are the latency rows (op, observations, p50/p95/p99) of
	// the query pipeline under this loss rate, from the collector's
	// histograms.
	Phases [][]string
}

type robustResult struct{ Rows []robustRow }

// runRobustness prices fault tolerance the way the paper prices query
// bandwidth: a deployment with Replication 2 and retrying RPCs
// publishes a DBLP corpus, loses one peer, repairs the index from the
// surviving replicas, and then answers a query workload (one query per
// 30 records) through a lossy network. Each row reports how many
// queries completed exactly versus returned an explicitly partial
// answer, alongside the retry, timeout, eviction and repair counters
// and the repair traffic. The lost peer neither publishes nor queries:
// it holds index keys only, so the rows price the index surviving a
// loss and the messages the network drops, not documents going missing.
func runRobustness(s Scale) (*robustResult, error) {
	res := &robustResult{}
	q := pattern.MustParse(robustQuery)
	for _, drop := range robustDrops {
		row := robustRow{DropProb: drop}
		err := withCluster(ClusterOptions{Peers: s.Peers, Cfg: kadop.Config{DHT: robustDHT}}, s.dblp(s.records()), func(cl *Cluster) error {
			cl.Net.Collector.Reset()
			// Lose one peer, then let the survivors restore the
			// replication factor, through the already-lossy network.
			// The victim is the first peer after the publishers; the
			// last one queries.
			victim := clusterPublishers
			if victim >= len(cl.Nodes)-1 {
				return fmt.Errorf("robustness: %d peers leave none that neither publishes nor queries", len(cl.Nodes))
			}
			cl.Net.SetFaults(dht.Faults{Seed: s.Seed, DropProb: drop})
			if err := cl.Nodes[victim].Close(); err != nil {
				return err
			}
			for i, nd := range cl.Nodes {
				if i != victim {
					rctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
					_, _ = nd.RepairOnce(rctx) // per-key failures show up in the counters
					cancel()
				}
			}
			// Every query must come back within its deadline, exact or
			// explicitly marked incomplete. The querier gets a tracer so
			// the per-phase histograms (transfer, twig join) populate
			// alongside the always-on ones.
			querier := cl.Peers[len(cl.Peers)-1]
			querier.Node().SetTracer(trace.New(4))
			for i := 0; i < max(4, s.records()/30); i++ {
				r, err := query(querier, q, kadop.QueryOptions{AllowPartial: true})
				if err != nil {
					return fmt.Errorf("robustness query at drop %.2f: %w", drop, err)
				}
				if r.Incomplete {
					row.Partial++
				} else {
					row.Complete++
				}
			}
			col := cl.Net.Collector
			row.Retries = col.Events(metrics.EventRetry)
			row.Timeouts = col.Events(metrics.EventTimeout)
			row.Evictions = col.Events(metrics.EventEviction)
			row.Repairs = col.Events(metrics.EventRepair)
			row.RepairBytes = col.Bytes(metrics.Repair)
			msq := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
			for _, op := range []string{
				metrics.OpQueryTotal, metrics.OpQueryIndex, metrics.OpLookup,
				metrics.OpPostingsTransfer, metrics.OpTwigJoin, metrics.OpSecondPhase,
			} {
				if h := col.Hist(op); h.Count() > 0 {
					row.Phases = append(row.Phases, []string{op, itoa(h.Count()),
						msq(h.Quantile(0.50)), msq(h.Quantile(0.95)), msq(h.Quantile(0.99))})
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (r *robustResult) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%.0f%%", row.DropProb*100), itoa(row.Complete), itoa(row.Partial),
			itoa(row.Retries), itoa(row.Timeouts), itoa(row.Evictions), itoa(row.Repairs), mb(row.RepairBytes)})
	}
	secs := []section{{"Robustness — queries after one peer failure, under message loss (Replication 2)",
		[]string{"drop", "complete", "partial", "retries", "timeouts", "evictions", "repairs", "repair(MB)"}, rows}}
	for _, row := range r.Rows {
		if len(row.Phases) > 0 {
			secs = append(secs, section{fmt.Sprintf("Phase latency at %.0f%% loss", row.DropProb*100),
				[]string{"phase", "obs", "p50(ms)", "p95(ms)", "p99(ms)"}, row.Phases})
		}
	}
	return secs, nil
}
