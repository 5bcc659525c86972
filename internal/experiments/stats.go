package experiments

import (
	"fmt"
	"math"
	"sort"

	"kadop/internal/dpp"
	"kadop/internal/kadop"
)

// The statistics experiment trains the querier's selectivity EWMAs on
// statsWarmup passes over the query set, then measures statsMeasure
// passes, over DPP blocks of statsBlockSize postings.
const (
	statsWarmup    = 6
	statsMeasure   = 3
	statsBlockSize = 256
	// statsErrBound is the p95 relative cardinality-estimation error
	// the measured passes must stay under.
	statsErrBound = 0.25
)

// statsQueries is the measured workload: the paper's stress query plus
// two broader shapes. The shapes are edge-disjoint on purpose — two
// queries training one edge to different reductions would oscillate
// the EWMA and measure the workload's ambiguity, not the registry.
var statsQueries = []string{
	Fig3Query,
	`//inproceedings//author`,
	`//article//title`,
}

// statsRow is one query shape's measurement.
type statsRow struct {
	Query string
	// Estimated and Actual are the registry's match prediction and the
	// twig join's match count on the last measured pass.
	Estimated float64
	Actual    int64
	// RelErr is the worst relative error across measured passes.
	RelErr float64
}

type statsResult struct {
	Rows []statsRow
	// ErrP50 and ErrP95 summarise relative errors over measured passes.
	ErrP50, ErrP95 float64
	// Unestimated counts measured queries that carried no estimate.
	Unestimated int
	// RegistryP95 is the querier registry's own bucketed p95, the value
	// /debug/stats and kadop-top report for the same run.
	RegistryP95 float64
	// FetchWork, JoinWork and AnswerWork are the summed actuals of the
	// measured passes: blocks fetched, postings scanned, documents
	// evaluated.
	FetchWork, JoinWork, AnswerWork int64
}

// runStats prices the estimation loop end to end: publish a corpus
// over a DPP deployment, train the querier's statistics registry on a
// warmup workload, then check the registry's cardinality estimates
// track the actuals the cost counters measure.
func runStats(s Scale) (res *statsResult, err error) {
	cfg := kadop.Config{UseDPP: true, DPP: dpp.Options{BlockSize: statsBlockSize}}
	err = withCluster(ClusterOptions{Peers: s.Peers, Cfg: cfg}, s.dblp(s.records()), func(cl *Cluster) error {
		res, err = statsPasses(cl)
		return err
	})
	return res, err
}

// statsPasses runs the warmup and measured passes on a loaded
// deployment.
func statsPasses(cl *Cluster) (*statsResult, error) {
	queries := parseAll(statsQueries)
	// One querier for the whole run: training and measurement must hit
	// the same registry, and a non-owner so fetches cross the network.
	querier := cl.NonOwnerPeer(queries[0])

	for pass := 0; pass < statsWarmup; pass++ {
		for _, q := range queries {
			if _, err := query(querier, q, kadop.QueryOptions{}); err != nil {
				return nil, fmt.Errorf("warmup: %w", err)
			}
		}
	}

	res := &statsResult{}
	rows := make([]statsRow, len(queries))
	var errs []float64
	for pass := 0; pass < statsMeasure; pass++ {
		for i, q := range queries {
			r, err := query(querier, q, kadop.QueryOptions{})
			if err != nil {
				return nil, fmt.Errorf("measure: %w", err)
			}
			res.FetchWork += r.Cost.RootFetches + r.Cost.BlocksFetched
			res.JoinWork += r.Cost.PostingsScanned
			res.AnswerWork += r.Cost.DocsEvaluated
			if r.Estimate == nil {
				res.Unestimated++
				continue
			}
			actual := int64(r.IndexMatches)
			relErr := math.Abs(r.Estimate.Matches-float64(actual)) / math.Max(float64(actual), 1)
			errs = append(errs, relErr)
			rows[i].Query = statsQueries[i]
			rows[i].Estimated = r.Estimate.Matches
			rows[i].Actual = actual
			rows[i].RelErr = max(rows[i].RelErr, relErr)
		}
	}
	res.Rows = rows
	sort.Float64s(errs)
	quantile := func(q float64) float64 {
		if len(errs) == 0 {
			return 0
		}
		return errs[max(0, int(math.Ceil(q*float64(len(errs))))-1)]
	}
	res.ErrP50, res.ErrP95 = quantile(0.50), quantile(0.95)
	res.RegistryP95 = querier.Stats().ErrorQuantile(0.95)
	return res, nil
}

func (r *statsResult) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Query, fmt.Sprintf("%.1f", row.Estimated), itoa(row.Actual), fmt.Sprintf("%.3f", row.RelErr)})
	}
	return []section{
			{"Statistics registry — cardinality estimates vs twig-join actuals (trained EWMAs)",
				[]string{"query", "est-matches", "actual", "max-rel-err"}, rows},
			{title: fmt.Sprintf("\nrelative error: p50 %.3f, p95 %.3f; registry bucketed p95 %.3g\nactuals: %d blocks+roots fetched, %d postings scanned, %d docs evaluated",
				r.ErrP50, r.ErrP95, r.RegistryP95, r.FetchWork, r.JoinWork, r.AnswerWork)},
		},
		// Every measured query carries an estimate within the error
		// bound, and every phase of the cost plane reports actuals: an
		// operator that stops counting is an observability bug no
		// dashboard would catch.
		[]bound{
			{"measured queries without an estimate", float64(r.Unestimated), "==", 0},
			{fmt.Sprintf("p95 relative estimation error after %d warmup passes", statsWarmup), r.ErrP95, "<=", statsErrBound},
			{"fetch actuals (blocks+roots)", float64(r.FetchWork), ">=", 1},
			{"join actuals (postings scanned)", float64(r.JoinWork), ">=", 1},
			{"answer actuals (docs evaluated)", float64(r.AnswerWork), ">=", 1},
		}
}
