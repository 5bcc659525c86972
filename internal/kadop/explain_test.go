package kadop

import (
	"strings"
	"testing"

	"kadop/internal/dpp"
	"kadop/internal/pattern"
	"kadop/internal/trace"
)

// TestCostPlaneEndToEnd drives a DPP cluster and checks the whole cost
// plane on a real query: operator actuals populated for every phase,
// and the shared explain renderer showing them. The query has a
// wildcard so that phase two runs; without it the index join answers,
// and no document is evaluated.
func TestCostPlaneEndToEnd(t *testing.T) {
	c := newCluster(t, 8, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 4}})
	truth := publishAll(t, c, dblpDocs)
	answerCalls := countAnswerCalls(c)
	querier := c.peers[len(c.peers)-1]
	tr := trace.New(4)
	querier.Node().SetTracer(tr)

	exact := pattern.MustParse(`//article//author[. contains "Ullman"]`)
	res, err := querier.Query(exact, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIndexAnswered(t, res, truth(exact), answerCalls.Load())

	q := pattern.MustParse(`//*//author[. contains "Ullman"]`)
	if res, err = querier.Query(q, QueryOptions{}); err != nil {
		t.Fatal(err)
	}

	cost := res.Cost
	if cost.RootFetches == 0 || cost.BlocksFetched == 0 || cost.WireBytes == 0 {
		t.Errorf("fetch actuals missing: %+v", cost)
	}
	if cost.PostingsScanned == 0 || cost.IndexMatches == 0 {
		t.Errorf("join actuals missing: %+v", cost)
	}
	if cost.DocsEvaluated == 0 || cost.Answers != int64(len(res.Matches)) {
		t.Errorf("answer actuals missing or inconsistent: %+v (%d matches)", cost, len(res.Matches))
	}

	out := FormatExplain(res, true)
	for _, want := range []string{
		"query", "phase:fetch", // the span tree
		"actual", "postings scanned", "docs evaluated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain-analyze output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "estimated") {
		t.Errorf("explain-analyze output has an estimated column:\n%s", out)
	}
	// -explain (no analyze) is the tree alone, same renderer.
	plain := FormatExplain(res, false)
	if !strings.Contains(plain, "phase:fetch") || strings.Contains(plain, "actual") {
		t.Errorf("explain output wrong:\n%s", plain)
	}
	if FormatExplain(nil, true) != "" {
		t.Error("nil result should render empty")
	}
}
