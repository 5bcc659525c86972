package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/obs/slo"
)

// PeerRow is one peer's line in the load table.
type PeerRow struct {
	Target         string
	BytesServed    int64
	PostingsServed int64
	BlocksServed   int64
	Appends        int64
	AppendBytes    int64
	TopTerm        string
}

// OpLatency is one operation's cluster-merged latency summary.
type OpLatency struct {
	Op    string
	Count int64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// SLORow is one objective's cluster-merged state, built from the
// kadop_slo_* gauges of every peer running an SLO engine.
type SLORow struct {
	Name string
	// Target is the good fraction required (from kadop_slo_target_ppm).
	Target float64
	// BudgetRemaining is the worst (minimum) remaining error-budget
	// fraction across peers.
	BudgetRemaining float64
	// MaxBurn is the hottest burn rate across peers and windows.
	MaxBurn float64
	// Alerting is true when any peer has an alerting burn window for
	// this objective; Severity is "page" when any page window fires,
	// else "ticket".
	Alerting bool
	Severity string
}

// ExemplarRef is one histogram exemplar seen in a scrape: a trace id
// pinned to a latency observation, the handle for "go look at that
// exact slow query".
type ExemplarRef struct {
	Peer    string
	Op      string
	TraceID uint64
	Seconds float64
}

// Report is the cluster-wide view built from a set of peer scrapes.
type Report struct {
	Peers []PeerRow
	// MaxMeanRatio is max(bytes served) / mean(bytes served): 1.0 is a
	// perfectly flat cluster; the paper's hot terms push it toward the
	// peer count.
	MaxMeanRatio float64
	// Gini is the Gini coefficient over per-peer bytes served (0 flat,
	// →1 one peer does all the work).
	Gini float64
	// HotTerms are cluster-wide: per-peer sketches merged by summing
	// byte weights per term.
	HotTerms []metrics.HotTerm
	// Ops are latency summaries from the peers' merged histograms.
	Ops []OpLatency
	// SLOs summarise the peers' SLO engines; empty when no scraped peer
	// exports kadop_slo_* series.
	SLOs []SLORow
	// SLOVerdict is the one-line cluster health call ("" without SLOs).
	SLOVerdict string
	// Exemplars are the slowest histogram exemplars scraped, worst
	// first — trace ids of real outlier queries.
	Exemplars []ExemplarRef
	// SampleCount is the total exposition samples scraped.
	SampleCount int
}

// BuildReport merges peer scrapes into one report, keeping the topK
// heaviest cluster-wide hot terms (0 = all).
func BuildReport(scrapes []*PeerScrape, topK int) *Report {
	r := &Report{}
	hot := map[string]int64{}
	var bytes []int64
	for _, ps := range scrapes {
		r.SampleCount += len(ps.Samples)
		row := PeerRow{
			Target:         ps.Target,
			BytesServed:    ps.Load.BytesServed,
			PostingsServed: ps.Load.PostingsServed,
			BlocksServed:   ps.Load.BlocksServed,
			Appends:        ps.Load.Appends,
			AppendBytes:    ps.Load.AppendBytes,
		}
		if len(ps.Load.HotTerms) > 0 {
			row.TopTerm = ps.Load.HotTerms[0].Term
		}
		for _, ht := range ps.Load.HotTerms {
			hot[ht.Term] += ht.Bytes
		}
		r.Peers = append(r.Peers, row)
		bytes = append(bytes, ps.Load.BytesServed)
	}
	r.MaxMeanRatio = maxMeanRatio(bytes)
	r.Gini = Gini(bytes)
	for term, b := range hot {
		r.HotTerms = append(r.HotTerms, metrics.HotTerm{Term: term, Bytes: b})
	}
	sort.Slice(r.HotTerms, func(i, j int) bool {
		if r.HotTerms[i].Bytes != r.HotTerms[j].Bytes {
			return r.HotTerms[i].Bytes > r.HotTerms[j].Bytes
		}
		return r.HotTerms[i].Term < r.HotTerms[j].Term
	})
	if topK > 0 && len(r.HotTerms) > topK {
		r.HotTerms = r.HotTerms[:topK]
	}
	r.Ops = mergeOps(scrapes)
	r.SLOs = mergeSLOs(scrapes)
	r.SLOVerdict = sloVerdict(r.SLOs)
	r.Exemplars = collectExemplars(scrapes, 5)
	return r
}

// mergeSLOs folds every peer's kadop_slo_* gauges into one row per
// objective: the worst budget, the hottest burn, alerting if anyone
// alerts.
func mergeSLOs(scrapes []*PeerScrape) []SLORow {
	rows := map[string]*SLORow{}
	row := func(name string) *SLORow {
		if r := rows[name]; r != nil {
			return r
		}
		r := &SLORow{Name: name, BudgetRemaining: 1}
		rows[name] = r
		return r
	}
	for _, ps := range scrapes {
		for _, s := range ps.Samples {
			name := s.Label("slo")
			if name == "" {
				continue
			}
			switch s.Name {
			case "kadop_slo_target_ppm":
				row(name).Target = s.Value / 1e6
			case "kadop_slo_budget_remaining_ppm":
				if b := s.Value / 1e6; b < row(name).BudgetRemaining {
					row(name).BudgetRemaining = b
				}
			case "kadop_slo_burn_rate_milli":
				if burn := s.Value / 1e3; burn > row(name).MaxBurn {
					row(name).MaxBurn = burn
				}
			case "kadop_slo_alert":
				if s.Value < 1 {
					continue
				}
				r := row(name)
				r.Alerting = true
				if sev := s.Label("severity"); sev == "page" || r.Severity == "" {
					r.Severity = sev
				}
			}
		}
	}
	out := make([]SLORow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sloVerdict renders the cluster health call with the engine's own
// Verdict, so kadop-top and /debug/slo always agree on the wording.
func sloVerdict(rows []SLORow) string {
	if len(rows) == 0 {
		return ""
	}
	statuses := make([]slo.Status, 0, len(rows))
	for _, r := range rows {
		statuses = append(statuses, slo.Status{Name: r.Name, Alerting: r.Alerting, Severity: r.Severity})
	}
	return slo.Verdict(statuses)
}

// collectExemplars gathers the topK slowest histogram exemplars across
// the scrapes.
func collectExemplars(scrapes []*PeerScrape, topK int) []ExemplarRef {
	var out []ExemplarRef
	for _, ps := range scrapes {
		for _, s := range ps.Samples {
			if s.Exemplar == nil || s.Name != "kadop_op_latency_seconds_bucket" {
				continue
			}
			id := s.Exemplar.TraceID()
			if id == 0 {
				continue
			}
			out = append(out, ExemplarRef{
				Peer:    ps.Target,
				Op:      s.Label("op"),
				TraceID: id,
				Seconds: s.Exemplar.Value,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].TraceID < out[j].TraceID
	})
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}

// maxMeanRatio returns max/mean over the values (0 when empty or all
// zero).
func maxMeanRatio(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var max, sum int64
	for _, v := range vals {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(vals))
	return float64(max) / mean
}

// Gini returns the Gini coefficient of the values: half the relative
// mean absolute difference. 0 when empty or all zero.
func Gini(vals []int64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum, weighted float64
	for i, v := range sorted {
		sum += float64(v)
		weighted += float64(i+1) * float64(v)
	}
	if sum == 0 {
		return 0
	}
	return (2*weighted)/(float64(n)*sum) - float64(n+1)/float64(n)
}

// mergedHist reconstructs one operation's histogram from _bucket
// samples summed across peers.
type mergedHist struct {
	bounds []float64 // ascending le bounds, seconds; +Inf excluded
	cum    []int64   // cumulative counts per bound
	total  int64
}

func (h *mergedHist) quantile(q float64) time.Duration {
	return time.Duration(histQuantile(h.bounds, h.cum, h.total, q) * float64(time.Second))
}

// histQuantile interpolates a quantile from cumulative bucket counts.
// It is hardened against the merges a real scrape produces: zero
// observations (a peer that has served nothing yet) return 0, and a
// bucket whose count does not advance past its predecessor — possible
// when peers disagree on bounds — contributes its upper bound instead
// of dividing by zero. The result is always finite.
func histQuantile(bounds []float64, cum []int64, total int64, q float64) float64 {
	if total <= 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total-1)) + 1
	var prev int64
	lo := 0.0
	for i, c := range cum {
		if c >= rank {
			n := c - prev
			hi := bounds[i]
			if n <= 0 {
				return hi
			}
			frac := float64(rank-prev) / float64(n)
			return lo + frac*(hi-lo)
		}
		prev = c
		lo = bounds[i]
	}
	return bounds[len(bounds)-1]
}

// mergeOps merges kadop_op_latency_seconds histograms across peers.
func mergeOps(scrapes []*PeerScrape) []OpLatency {
	type key struct {
		op string
		le float64
	}
	buckets := map[key]int64{}
	totals := map[string]int64{}
	bounds := map[string]map[float64]bool{}
	for _, ps := range scrapes {
		for _, s := range ps.Samples {
			switch s.Name {
			case "kadop_op_latency_seconds_bucket":
				op := s.Label("op")
				leStr := s.Label("le")
				if leStr == "+Inf" {
					continue
				}
				le, err := parseValue(leStr)
				if err != nil {
					continue
				}
				buckets[key{op, le}] += int64(s.Value)
				if bounds[op] == nil {
					bounds[op] = map[float64]bool{}
				}
				bounds[op][le] = true
			case "kadop_op_latency_seconds_count":
				totals[s.Label("op")] += int64(s.Value)
			}
		}
	}
	ops := make([]string, 0, len(totals))
	for op := range totals {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	out := make([]OpLatency, 0, len(ops))
	for _, op := range ops {
		bs := make([]float64, 0, len(bounds[op]))
		for b := range bounds[op] {
			bs = append(bs, b)
		}
		sort.Float64s(bs)
		h := &mergedHist{bounds: bs, total: totals[op]}
		for _, b := range bs {
			h.cum = append(h.cum, buckets[key{op, b}])
		}
		out = append(out, OpLatency{
			Op:    op,
			Count: totals[op],
			P50:   h.quantile(0.50),
			P95:   h.quantile(0.95),
			P99:   h.quantile(0.99),
		})
	}
	return out
}

// Format renders the report as the kadop-top load table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster load — %d peers, %d samples\n", len(r.Peers), r.SampleCount)
	fmt.Fprintf(&b, "%-28s %12s %10s %8s %9s  %s\n",
		"peer", "bytes-served", "postings", "blocks", "appends", "top-term")
	for _, p := range r.Peers {
		fmt.Fprintf(&b, "%-28s %12s %10d %8d %9d  %s\n",
			p.Target, fmtBytes(p.BytesServed), p.PostingsServed, p.BlocksServed, p.Appends, p.TopTerm)
	}
	fmt.Fprintf(&b, "imbalance: max/mean %.2f, Gini %.3f\n", r.MaxMeanRatio, r.Gini)
	if len(r.HotTerms) > 0 {
		b.WriteString("hot terms (cluster-wide):")
		for i, ht := range r.HotTerms {
			if i >= 8 {
				break
			}
			fmt.Fprintf(&b, " %s=%s", ht.Term, fmtBytes(ht.Bytes))
		}
		b.WriteByte('\n')
	}
	if len(r.Ops) > 0 {
		fmt.Fprintf(&b, "%-20s %10s %12s %12s %12s\n", "op (merged)", "count", "p50", "p95", "p99")
		for _, o := range r.Ops {
			fmt.Fprintf(&b, "%-20s %10d %12v %12v %12v\n", o.Op, o.Count, o.P50, o.P95, o.P99)
		}
	}
	if r.SLOVerdict != "" {
		fmt.Fprintf(&b, "slo: %s\n", r.SLOVerdict)
		for _, s := range r.SLOs {
			state := "ok"
			if s.Alerting {
				state = "BURN " + s.Severity
			}
			fmt.Fprintf(&b, "  %-22s target %.4g%%  budget %6.1f%%  burn %5.1fx  %s\n",
				s.Name, s.Target*100, s.BudgetRemaining*100, s.MaxBurn, state)
		}
	}
	if len(r.Exemplars) > 0 {
		b.WriteString("slow exemplars:\n")
		for _, e := range r.Exemplars {
			fmt.Fprintf(&b, "  trace %016x  %-16s %9.2gs  %s\n", e.TraceID, e.Op, e.Seconds, e.Peer)
		}
	}
	return b.String()
}

func fmtBytes(n int64) string {
	f := float64(n)
	switch {
	case f >= 1<<30:
		return fmt.Sprintf("%.2fGB", f/(1<<30))
	case f >= 1<<20:
		return fmt.Sprintf("%.2fMB", f/(1<<20))
	case f >= 1<<10:
		return fmt.Sprintf("%.1fKB", f/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
