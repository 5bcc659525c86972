// Package slo evaluates service-level objectives over the metrics the
// cluster already records. An Objective names a cumulative good/total
// event source — queries under a latency threshold, RPCs that did not
// error — and a target fraction; the Engine samples the sources on a
// tick, computes error burn rates over multiple look-back windows, and
// raises an alert when both windows of a pair burn faster than their
// threshold (the multi-window, multi-burn-rate pattern: the short
// window proves the problem is current, the long window proves it is
// not a blip).
//
// Results are exported as kadop_slo_* registry gauges, so the same
// /metrics endpoint that carries the raw counters carries the verdict,
// and kadop-top can render cluster health without re-deriving policy.
// An OnAlert hook lets a flight-recorder watchdog snapshot forensics
// at the moment the budget starts burning.
package slo

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"kadop/internal/metrics"
)

// Source reports the cumulative good and total event counts of one
// objective. Both must be monotonic; the engine works on deltas.
type Source func() (good, total int64)

// LatencySource adapts a collector histogram into a Source: an
// observation is good when it landed in a bucket bounded at or under
// the threshold. The threshold is rounded up to the owning bucket
// bound, so pick thresholds on the power-of-two grid for exactness.
func LatencySource(c *metrics.Collector, op string, threshold time.Duration) Source {
	return func() (int64, int64) {
		h := c.Hist(op)
		if h == nil {
			return 0, 0
		}
		var good int64
		for i := 0; i < metrics.NumBuckets; i++ {
			if metrics.BucketBound(i) > threshold {
				break
			}
			good += h.BucketCount(i)
		}
		return good, h.Count()
	}
}

// CounterSource adapts a pair of cumulative counter reads into a
// Source: total = good + errors.
func CounterSource(good, errors func() int64) Source {
	return func() (int64, int64) {
		g, e := good(), errors()
		return g, g + e
	}
}

// Objective is one declarative SLO.
type Objective struct {
	// Name identifies the objective in exported series and alerts.
	Name string
	// Description is shown on /debug/slo.
	Description string
	// Target is the required good fraction, in (0, 1) — e.g. 0.99.
	Target float64
	// Source supplies the cumulative good/total counts.
	Source Source
}

// Window is one burn-rate alert condition: alert when the error budget
// burns at more than Burn× the sustainable rate over both the short
// and the long look-back.
type Window struct {
	Short    time.Duration
	Long     time.Duration
	Burn     float64
	Severity string
}

// String renders the window pair for labels ("5s/1m0s").
func (w Window) String() string { return w.Short.String() + "/" + w.Long.String() }

// Alert is one burn-rate condition newly met.
type Alert struct {
	SLO       string
	Severity  string
	Window    Window
	ShortBurn float64
	LongBurn  float64
	At        time.Time
}

func (a Alert) String() string {
	return fmt.Sprintf("slo %s %s: burn %.1fx/%.1fx over %s (threshold %.1fx)",
		a.SLO, a.Severity, a.ShortBurn, a.LongBurn, a.Window, a.Window.Burn)
}

// Config assembles an Engine.
type Config struct {
	Objectives []Objective
	// Windows are the alert conditions applied to every objective;
	// DefaultWindows() when empty.
	Windows []Window
	// Registry receives the kadop_slo_* gauges (optional).
	Registry *metrics.Registry
	// OnAlert fires once per transition into an alerting window
	// (optional). Called from Tick, so it must not block.
	OnAlert func(Alert)
	// MaxSamples bounds per-objective history (default 1024).
	MaxSamples int
}

// DefaultWindows returns the classic SRE multi-window pairs (5m/1h at
// 14.4× pages, 30m/6h at 6× tickets). Experiments pass compressed
// windows instead; production peers use these.
func DefaultWindows() []Window {
	return []Window{
		{Short: 5 * time.Minute, Long: time.Hour, Burn: 14.4, Severity: "page"},
		{Short: 30 * time.Minute, Long: 6 * time.Hour, Burn: 6, Severity: "ticket"},
	}
}

type sample struct {
	at          time.Time
	good, total int64
}

type objectiveState struct {
	obj      Objective
	samples  []sample
	alerting []bool // per window index
}

// Engine evaluates the configured objectives. Create with New; Tick
// drives it deterministically, Start runs a background ticker.
type Engine struct {
	cfg     Config
	windows []Window

	mu     sync.Mutex
	states []*objectiveState
}

// New validates the config and returns an engine. Objectives with
// targets outside (0,1) or without a source are rejected.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	windows := cfg.Windows
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	for _, w := range windows {
		if w.Short <= 0 || w.Long < w.Short || w.Burn <= 0 {
			return nil, fmt.Errorf("slo: bad window %+v", w)
		}
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 1024
	}
	e := &Engine{cfg: cfg, windows: windows}
	seen := map[string]bool{}
	for _, o := range cfg.Objectives {
		if o.Name == "" || o.Source == nil {
			return nil, fmt.Errorf("slo: objective %q missing name or source", o.Name)
		}
		if o.Target <= 0 || o.Target >= 1 {
			return nil, fmt.Errorf("slo: objective %s: target %v outside (0,1)", o.Name, o.Target)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		e.states = append(e.states, &objectiveState{obj: o, alerting: make([]bool, len(windows))})
	}
	return e, nil
}

// WindowStatus is one window's evaluation for one objective.
type WindowStatus struct {
	Window    Window  `json:"-"`
	Label     string  `json:"window"`
	Severity  string  `json:"severity"`
	Threshold float64 `json:"threshold"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Alerting  bool    `json:"alerting"`
}

// Status is one objective's current evaluation.
type Status struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	Good        int64   `json:"good"`
	Total       int64   `json:"total"`
	// BudgetRemaining is the fraction of the all-time error budget
	// left: 1 − observedErrorRate/allowedErrorRate. Negative when the
	// objective is violated outright.
	BudgetRemaining float64        `json:"budget_remaining"`
	Windows         []WindowStatus `json:"windows"`
	Alerting        bool           `json:"alerting"`
	// Severity is the worst alerting window's severity ("" when calm).
	Severity string `json:"severity,omitempty"`
}

// Tick samples every objective's source at now, re-evaluates all burn
// windows, updates the registry gauges, and fires OnAlert for windows
// newly alerting. Deterministic given the sources; tests drive it with
// a fake clock.
func (e *Engine) Tick(now time.Time) []Status {
	if e == nil {
		return nil
	}
	statuses, fired := e.tick(now)
	if e.cfg.OnAlert != nil {
		for _, a := range fired {
			e.cfg.OnAlert(a)
		}
	}
	return statuses
}

func (e *Engine) tick(now time.Time) ([]Status, []Alert) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var fired []Alert
	statuses := make([]Status, 0, len(e.states))
	for _, st := range e.states {
		good, total := st.obj.Source()
		st.samples = append(st.samples, sample{at: now, good: good, total: total})
		st.trim(now, e.longestWindow(), e.cfg.MaxSamples)

		status := Status{
			Name:            st.obj.Name,
			Description:     st.obj.Description,
			Target:          st.obj.Target,
			Good:            good,
			Total:           total,
			BudgetRemaining: budgetRemaining(st.obj.Target, good, total),
		}
		budget := 1 - st.obj.Target
		for wi, w := range e.windows {
			ws := WindowStatus{
				Window:    w,
				Label:     w.String(),
				Severity:  w.Severity,
				Threshold: w.Burn,
				ShortBurn: st.burn(now, w.Short, budget),
				LongBurn:  st.burn(now, w.Long, budget),
			}
			ws.Alerting = ws.ShortBurn >= w.Burn && ws.LongBurn >= w.Burn
			if ws.Alerting && !st.alerting[wi] {
				fired = append(fired, Alert{
					SLO: st.obj.Name, Severity: w.Severity, Window: w,
					ShortBurn: ws.ShortBurn, LongBurn: ws.LongBurn, At: now,
				})
			}
			st.alerting[wi] = ws.Alerting
			if ws.Alerting {
				status.Alerting = true
				if status.Severity == "" || ws.Severity == "page" {
					status.Severity = ws.Severity
				}
			}
			status.Windows = append(status.Windows, ws)
		}
		e.export(status)
		statuses = append(statuses, status)
	}
	return statuses, fired
}

// Status returns the evaluation of the most recent Tick (re-running
// the window math against the stored samples, without sampling the
// sources again). Before any tick it returns zeroed statuses.
func (e *Engine) Status() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	statuses := make([]Status, 0, len(e.states))
	for _, st := range e.states {
		status := Status{
			Name:        st.obj.Name,
			Description: st.obj.Description,
			Target:      st.obj.Target,
		}
		if n := len(st.samples); n > 0 {
			last := st.samples[n-1]
			status.Good, status.Total = last.good, last.total
			status.BudgetRemaining = budgetRemaining(st.obj.Target, last.good, last.total)
			budget := 1 - st.obj.Target
			for wi, w := range e.windows {
				ws := WindowStatus{
					Window:    w,
					Label:     w.String(),
					Severity:  w.Severity,
					Threshold: w.Burn,
					ShortBurn: st.burn(last.at, w.Short, budget),
					LongBurn:  st.burn(last.at, w.Long, budget),
					Alerting:  st.alerting[wi],
				}
				if ws.Alerting {
					status.Alerting = true
					if status.Severity == "" || ws.Severity == "page" {
						status.Severity = ws.Severity
					}
				}
				status.Windows = append(status.Windows, ws)
			}
		} else {
			for _, w := range e.windows {
				status.Windows = append(status.Windows, WindowStatus{
					Window: w, Label: w.String(), Severity: w.Severity, Threshold: w.Burn,
				})
			}
		}
		statuses = append(statuses, status)
	}
	return statuses
}

// Start runs Tick on the interval until the returned stop function is
// called.
func (e *Engine) Start(interval time.Duration) (stop func()) {
	if e == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				e.Tick(now)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// burn computes the budget burn rate over the window ending at the
// latest sample: (error rate over the window) / (allowed error rate).
// With history shorter than the window, the oldest sample brackets it.
func (st *objectiveState) burn(now time.Time, window time.Duration, budget float64) float64 {
	n := len(st.samples)
	if n < 2 || budget <= 0 {
		return 0
	}
	cur := st.samples[n-1]
	cutoff := now.Add(-window)
	// Latest sample at or before the cutoff; fall back to the oldest.
	base := st.samples[0]
	for i := n - 2; i >= 0; i-- {
		if !st.samples[i].at.After(cutoff) {
			base = st.samples[i]
			break
		}
	}
	dTotal := cur.total - base.total
	if dTotal <= 0 {
		return 0
	}
	dErr := (cur.total - cur.good) - (base.total - base.good)
	if dErr <= 0 {
		return 0
	}
	return (float64(dErr) / float64(dTotal)) / budget
}

// trim drops samples older than the longest window (keeping one
// bracketing sample past it) and enforces the MaxSamples cap.
func (st *objectiveState) trim(now time.Time, longest time.Duration, maxSamples int) {
	cutoff := now.Add(-longest)
	// Keep the newest sample at or before the cutoff as the bracket.
	keepFrom := 0
	for i := len(st.samples) - 1; i >= 0; i-- {
		if !st.samples[i].at.After(cutoff) {
			keepFrom = i
			break
		}
	}
	if over := len(st.samples) - maxSamples; over > keepFrom {
		keepFrom = over
	}
	if keepFrom > 0 {
		st.samples = append(st.samples[:0], st.samples[keepFrom:]...)
	}
}

func (e *Engine) longestWindow() time.Duration {
	var longest time.Duration
	for _, w := range e.windows {
		if w.Long > longest {
			longest = w.Long
		}
	}
	return longest
}

// budgetRemaining returns the fraction of the all-time error budget
// left (1 = untouched, 0 = spent, negative = violated).
func budgetRemaining(target float64, good, total int64) float64 {
	if total == 0 {
		return 1
	}
	budget := 1 - target
	errRate := float64(total-good) / float64(total)
	return 1 - errRate/budget
}

// export mirrors one status into the kadop_slo_* registry gauges.
// Registry values are int64, so fractions are scaled: targets and
// budgets in ppm, burn rates in millis.
func (e *Engine) export(s Status) {
	r := e.cfg.Registry
	if r == nil {
		return
	}
	l := metrics.Label{Key: "slo", Value: s.Name}
	r.Gauge("kadop_slo_target_ppm", "SLO good-fraction target, parts per million.", l).Set(ppm(s.Target))
	r.Gauge("kadop_slo_good_events", "Cumulative good events of the SLO source.", l).Set(s.Good)
	r.Gauge("kadop_slo_events", "Cumulative total events of the SLO source.", l).Set(s.Total)
	r.Gauge("kadop_slo_budget_remaining_ppm", "Remaining all-time error budget, parts per million (negative = violated).", l).Set(ppm(s.BudgetRemaining))
	alerting := map[string]bool{}
	for _, ws := range s.Windows {
		r.Gauge("kadop_slo_burn_rate_milli", "Error-budget burn rate over the look-back window, thousandths.",
			l, metrics.Label{Key: "window", Value: ws.Window.Short.String()}).Set(milli(ws.ShortBurn))
		r.Gauge("kadop_slo_burn_rate_milli", "Error-budget burn rate over the look-back window, thousandths.",
			l, metrics.Label{Key: "window", Value: ws.Window.Long.String()}).Set(milli(ws.LongBurn))
		if ws.Alerting {
			alerting[ws.Severity] = true
		}
	}
	for _, sev := range []string{"page", "ticket"} {
		v := int64(0)
		if alerting[sev] {
			v = 1
		}
		r.Gauge("kadop_slo_alert", "1 while a burn-rate window of this severity is alerting.", l, metrics.Label{Key: "severity", Value: sev}).Set(v)
	}
}

func ppm(f float64) int64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0
	}
	return int64(math.Round(f * 1e6))
}

func milli(f float64) int64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0
	}
	return int64(math.Round(f * 1e3))
}

// Verdict condenses a status list into a one-line cluster health call:
// "ok", or the worst alerting severity with the offending objectives.
func Verdict(statuses []Status) string {
	var page, ticket []string
	for _, s := range statuses {
		if !s.Alerting {
			continue
		}
		if s.Severity == "page" {
			page = append(page, s.Name)
		} else {
			ticket = append(ticket, s.Name)
		}
	}
	switch {
	case len(page) > 0:
		sort.Strings(page)
		return "BURN page: " + joinNames(page)
	case len(ticket) > 0:
		sort.Strings(ticket)
		return "BURN ticket: " + joinNames(ticket)
	default:
		return "ok"
	}
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}
