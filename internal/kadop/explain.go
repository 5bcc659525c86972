package kadop

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// FormatExplain renders a query result for the kadop-query -explain
// and -explain-analyze flags: the span tree (when the query was
// traced), and with analyze also the per-phase table of the operator
// actuals the query recorded (Result.Cost). One renderer serves both
// flags so the span tree — including the per-span cache hits and
// holder-stream errors — never diverges between them.
func FormatExplain(res *Result, analyze bool) string {
	if res == nil {
		return ""
	}
	var b strings.Builder
	if res.Trace != nil {
		if tree := res.Trace.Tree(); tree != "" {
			b.WriteString(tree)
		}
	}
	if !analyze {
		return b.String()
	}
	if b.Len() > 0 {
		b.WriteString("\n")
	}
	c := res.Cost
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tmetric\tactual")
	fmt.Fprintln(w, "-----\t------\t------")
	row := func(phase, metric string, actual int64) {
		fmt.Fprintf(w, "%s\t%s\t%d\n", phase, metric, actual)
	}
	row("fetch", "root fetches", c.RootFetches)
	row("fetch", "blocks fetched", c.BlocksFetched)
	row("fetch", "cache hits", c.CacheHits)
	row("fetch", "wire bytes", c.WireBytes)
	row("fetch", "replica probes", c.ReplicaProbes)
	row("fetch", "shed retries", c.ShedRetries)
	row("join", "postings scanned", c.PostingsScanned)
	row("join", "candidates", c.Candidates)
	row("join", "candidates pruned", c.Pruned)
	row("join", "index matches", c.IndexMatches)
	row("answers", "docs evaluated", c.DocsEvaluated)
	row("answers", "elements scanned", c.ElementsScanned)
	row("answers", "answers", c.Answers)
	w.Flush()
	return b.String()
}
