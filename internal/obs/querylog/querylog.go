// Package querylog writes one structured JSONL record per query: the
// pattern, per-phase latencies, bytes moved, cache hits, routing hops
// and retries. The records are the durable counterpart of the live
// trace ring — greppable with jq, joinable across peers by time, and
// cheap enough (one slog line per query) to leave on in
// production deployments.
package querylog

import (
	"context"
	"io"
	"log/slog"
	"time"
)

// Logger emits query records as JSON lines through log/slog. Safe for
// concurrent use; the zero value is not usable, use New. A nil Logger
// is safe: Log is a no-op.
type Logger struct {
	lg *slog.Logger
}

// New returns a Logger writing JSONL to w.
func New(w io.Writer) *Logger {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo})
	return &Logger{lg: slog.New(h)}
}

// Record is one query's log line. Durations are nanoseconds, named
// *_ns; byte counts are the collector's class deltas around the query
// (exact for a single-query process; approximate under concurrent
// queries sharing a collector).
type Record struct {
	Query     string `json:"query"`
	Strategy  string `json:"strategy"`
	IndexOnly bool   `json:"index_only,omitempty"`

	IndexNS       int64 `json:"index_ns"`
	FirstAnswerNS int64 `json:"first_answer_ns"`
	SecondPhaseNS int64 `json:"second_phase_ns,omitempty"`
	TotalNS       int64 `json:"total_ns"`

	PostingBytes int64 `json:"posting_bytes"`
	FilterBytes  int64 `json:"filter_bytes,omitempty"`
	RoutingBytes int64 `json:"routing_bytes,omitempty"`

	CacheHits     int   `json:"cache_hits"`
	BlocksFetched int   `json:"blocks_fetched,omitempty"`
	Hops          int64 `json:"hops"`
	Retries       int64 `json:"retries"`
	Timeouts      int64 `json:"timeouts,omitempty"`
	IndexMatches  int   `json:"index_matches"`
	CandidateDocs int   `json:"candidate_docs"`
	Answers       int   `json:"answers"`
	Incomplete    bool  `json:"incomplete,omitempty"`
	FailedPeers   int   `json:"failed_peers,omitempty"`

	Err string `json:"err,omitempty"`

	// TraceID is the query's trace identifier in hex ("" when the query
	// was untraced). It joins the record with histogram exemplars on
	// /metrics and flight-recorder dumps.
	TraceID string `json:"trace_id,omitempty"`
	// Slow marks a query at or over the slow-query threshold; its record
	// carries the trace tree.
	Slow bool `json:"slow,omitempty"`
	// Trace is the query's full span tree (slow captures only; any
	// JSON-marshalable shape, in practice trace.TraceRecord).
	Trace any `json:"trace,omitempty"`
}

// Log writes one record.
func (l *Logger) Log(r Record) {
	if l == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("query", r.Query),
		slog.String("strategy", r.Strategy),
		slog.Bool("index_only", r.IndexOnly),
		slog.Int64("index_ns", r.IndexNS),
		slog.Int64("first_answer_ns", r.FirstAnswerNS),
		slog.Int64("second_phase_ns", r.SecondPhaseNS),
		slog.Int64("total_ns", r.TotalNS),
		slog.Int64("posting_bytes", r.PostingBytes),
		slog.Int64("filter_bytes", r.FilterBytes),
		slog.Int64("routing_bytes", r.RoutingBytes),
		slog.Int("cache_hits", r.CacheHits),
		slog.Int("blocks_fetched", r.BlocksFetched),
		slog.Int64("hops", r.Hops),
		slog.Int64("retries", r.Retries),
		slog.Int64("timeouts", r.Timeouts),
		slog.Int("index_matches", r.IndexMatches),
		slog.Int("candidate_docs", r.CandidateDocs),
		slog.Int("answers", r.Answers),
		slog.Bool("incomplete", r.Incomplete),
		slog.Int("failed_peers", r.FailedPeers),
		slog.String("err", r.Err),
	}
	if r.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", r.TraceID))
	}
	if r.Slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if r.Trace != nil {
		attrs = append(attrs, slog.Any("trace", r.Trace))
	}
	l.lg.LogAttrs(context.Background(), slog.LevelInfo, "query", attrs...)
}

// DurNS converts a duration to the record's nanosecond representation.
func DurNS(d time.Duration) int64 { return d.Nanoseconds() }
