package kadop

import (
	"kadop/internal/metrics"
	"kadop/internal/obs/querylog"
	"kadop/internal/pattern"
)

// logSnapshot captures the collector state a query log record is
// computed against: the deltas around one query are that query's
// traffic (exact in a single-query process, approximate when
// concurrent queries share the collector).
type logSnapshot struct {
	classBytes map[metrics.Class]int64
	retries    int64
	timeouts   int64
	findNodes  int64
}

func (p *Peer) logSnapshot() logSnapshot {
	col := p.node.Metrics()
	return logSnapshot{
		classBytes: col.ClassBytes(),
		retries:    col.Events(metrics.EventRetry),
		timeouts:   col.Events(metrics.EventTimeout),
		findNodes:  col.Hist(metrics.OpRPCFindNode).Count(),
	}
}

// buildLogRecord turns one query's outcome plus the collector deltas
// into a flat querylog.Record.
func (p *Peer) buildLogRecord(q *pattern.Query, opts QueryOptions, snap logSnapshot, res *Result, err error) querylog.Record {
	col := p.node.Metrics()
	rec := querylog.Record{
		Query:     q.String(),
		Strategy:  opts.Strategy.String(),
		IndexOnly: opts.IndexOnly,
		Retries:   col.Events(metrics.EventRetry) - snap.retries,
		Timeouts:  col.Events(metrics.EventTimeout) - snap.timeouts,
		Hops:      col.Hist(metrics.OpRPCFindNode).Count() - snap.findNodes,
	}
	now := col.ClassBytes()
	rec.PostingBytes = now[metrics.Postings] - snap.classBytes[metrics.Postings]
	for _, c := range [...]metrics.Class{metrics.Filters, metrics.FiltersAB, metrics.FiltersDB} {
		rec.FilterBytes += now[c] - snap.classBytes[c]
	}
	rec.RoutingBytes = now[metrics.Routing] - snap.classBytes[metrics.Routing]
	if err != nil {
		rec.Err = err.Error()
	}
	if res == nil {
		return rec
	}
	rec.IndexNS = res.IndexTime.Nanoseconds()
	rec.FirstAnswerNS = res.FirstAnswer.Nanoseconds()
	rec.TotalNS = res.Total.Nanoseconds()
	if d := res.Total - res.IndexTime; d > 0 && !opts.IndexOnly {
		rec.SecondPhaseNS = d.Nanoseconds()
	}
	// Cache hits and block counts come from the DPP fetch plans: exact
	// per query, unlike the collector's shared event counters.
	for _, pl := range res.Plans {
		if pl == nil {
			continue
		}
		rec.CacheHits += pl.CacheHits
		rec.BlocksFetched += pl.Fetched
	}
	rec.IndexMatches = res.IndexMatches
	rec.CandidateDocs = len(res.Docs)
	rec.Answers = len(res.Matches)
	rec.Incomplete = res.Incomplete
	rec.FailedPeers = res.FailedPeers
	return rec
}
