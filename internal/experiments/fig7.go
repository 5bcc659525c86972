package experiments

import (
	"fmt"

	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
)

// fig7Queries are the Figure 7 queries, per sub-figure.
var fig7Queries = map[string]string{
	"a": `//article[. contains "Ullman"]`,
	"b": `//article//author[. contains "Ullman"]`,
	"c": `//article[//title]//author[. contains "Ullman"]`,
}

// fig7Row is one strategy's measurement, broken down as in the figure.
type fig7Row struct {
	Strategy      kadop.Strategy
	PostingBytes  int64
	ABFilterBytes int64
	DBFilterBytes int64
	Normalized    float64 // total volume / conventional posting volume
	IndexMatches  int
}

type fig7Result struct {
	Variant  string
	Baseline int64 // conventional strategy's posting bytes
	Rows     []fig7Row
}

// runFig7 reproduces one Figure 7 sub-figure: the total data volume of
// each filter-based strategy, normalized by the volume the conventional
// strategy ships, split into posting and filter transfers.
func runFig7(variant string, s Scale) (*fig7Result, error) {
	strategies := []kadop.Strategy{kadop.ABReducer, kadop.DBReducer, kadop.BloomReducer}
	if variant == "c" {
		strategies = append(strategies, kadop.SubQueryReducer)
	}
	q := pattern.MustParse(fig7Queries[variant])
	res := &fig7Result{Variant: variant}
	docs := s.dblp(s.records())

	run := func(strategy kadop.Strategy) (row fig7Row, err error) {
		err = withCluster(ClusterOptions{Peers: s.Peers}, docs, func(cl *Cluster) error {
			col := cl.Net.Collector
			col.Reset()
			r, err := cl.NonOwnerPeer(q).Query(q, kadop.QueryOptions{Strategy: strategy, IndexOnly: true})
			if err != nil {
				return fmt.Errorf("fig7%s %v: %w", variant, strategy, err)
			}
			row = fig7Row{Strategy: strategy, PostingBytes: col.Bytes(metrics.Postings),
				ABFilterBytes: col.Bytes(metrics.FiltersAB), DBFilterBytes: col.Bytes(metrics.FiltersDB), IndexMatches: r.IndexMatches}
			return nil
		})
		return row, err
	}

	base, err := run(kadop.Conventional)
	if err != nil {
		return nil, err
	}
	res.Baseline = base.PostingBytes
	for _, st := range strategies {
		row, err := run(st)
		if err != nil {
			return nil, err
		}
		if row.IndexMatches != base.IndexMatches {
			return nil, fmt.Errorf("fig7%s: strategy %v changed the answer (%d vs %d index matches)",
				variant, st, row.IndexMatches, base.IndexMatches)
		}
		row.Normalized = float64(row.PostingBytes+row.ABFilterBytes+row.DBFilterBytes) / float64(res.Baseline)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (r *fig7Result) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Strategy.String(), fmt.Sprintf("%.3f", row.Normalized),
			mb(row.PostingBytes), mb(row.ABFilterBytes), mb(row.DBFilterBytes)})
	}
	return []section{{fmt.Sprintf("Figure 7(%s) — normalized data volume for %s (baseline %s MB of postings)",
		r.Variant, fig7Queries[r.Variant], mb(r.Baseline)),
		[]string{"strategy", "normalized", "postings(MB)", "AB filters(MB)", "DB filters(MB)"}, rows}}, nil
}
