package kadop

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// FormatExplain renders a query result for the kadop-query -explain
// and -explain-analyze flags: the span tree (when the query was
// traced), and with analyze also the per-phase work table comparing
// the statistics registry's pre-execution estimate with the operator
// actuals the query recorded. One renderer serves both flags so the
// span tree — including the per-span cache hits and holder-stream
// errors — never diverges between them.
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
	est := res.Estimate
	// The estimated column only exists for the quantities the registry
	// predicts; everything else is actual-only ("-"). A nil Estimate
	// (unknown cardinalities) blanks the whole column.
	estOf := func(v int64) string {
		if est == nil {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	var estBlocks, estBytes, estPostings, estMatches string = "-", "-", "-", "-"
	if est != nil {
		estBlocks = estOf(est.Blocks)
		estBytes = estOf(est.Bytes)
		estPostings = estOf(est.Postings)
		estMatches = fmt.Sprintf("%.1f", est.Matches)
	}
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tmetric\testimated\tactual")
	fmt.Fprintln(w, "-----\t------\t---------\t------")
	row := func(phase, metric, estimated string, actual int64) {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\n", phase, metric, estimated, actual)
	}
	row("fetch", "root fetches", "-", c.RootFetches)
	row("fetch", "blocks fetched", estBlocks, c.BlocksFetched)
	row("fetch", "cache hits", "-", c.CacheHits)
	row("fetch", "wire bytes", estBytes, c.WireBytes)
	row("fetch", "replica probes", "-", c.ReplicaProbes)
	row("fetch", "shed retries", "-", c.ShedRetries)
	row("join", "postings scanned", estPostings, c.PostingsScanned)
	row("join", "candidates", "-", c.Candidates)
	row("join", "candidates pruned", "-", c.Pruned)
	row("join", "index matches", estMatches, c.IndexMatches)
	row("answers", "docs evaluated", "-", c.DocsEvaluated)
	row("answers", "elements scanned", "-", c.ElementsScanned)
	row("answers", "answers", "-", c.Answers)
	w.Flush()
	return b.String()
}
