package experiments

import (
	"fmt"
	"os"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/obs/flight"
	"kadop/internal/obs/slo"
	"kadop/internal/pattern"
	"kadop/internal/trace"
)

// The SLO run queries sloQueries times per phase; its overload phase
// drops messages with probability sloDrop and delays each by up to
// sloJitter. sloSlow is the slow-query capture threshold and the
// latency objective's cut-off (rounded up to the owning histogram
// bucket).
const (
	sloQueries = 8
	sloDrop    = 0.2
	sloJitter  = 400 * time.Millisecond
	sloSlow    = 50 * time.Millisecond
)

// sloForensics hands the live observability objects of an SLO run to
// the inspect hook of runSLO.
type sloForensics struct {
	// Node is the querier's overlay node (collector, registry, flight).
	Node *dht.Node
	// Engine is the ticked SLO engine, alerting after the overload.
	Engine *slo.Engine
}

// sloPhase is one phase's measurement.
type sloPhase struct {
	Phase  string
	Errors int
	// Slow counts queries captured at or over the slow threshold.
	Slow int64
	// MaxBurn is the hottest burn rate across objectives and windows at
	// the phase's closing tick.
	MaxBurn float64
	Verdict string
	// Alerting counts the objectives alerting at the closing tick;
	// Alerts the alerts fired during the phase.
	Alerting, Alerts int
}

type sloResult struct {
	Healthy, Overload sloPhase
	// DumpPath is the watchdog's flight dump on disk, DumpBytes its
	// size (0 when the watchdog wrote none).
	DumpPath  string
	DumpBytes int64
	// DumpEvents is the number of events in the querier's flight ring.
	DumpEvents int
	// QueryTraces / ExemplarTraces / LinkedTraces count the distinct
	// query trace ids in the flight dump, on the latency histogram's
	// exemplars, and in both.
	QueryTraces    int
	ExemplarTraces int
	LinkedTraces   int
}

// runSLO prices the observability plane end to end. A deployment
// answers a healthy query workload (the SLO engine ticks and stays
// calm), then the network starts dropping messages: queries slow down
// and fail, the availability budget burns past the window thresholds,
// the alert fires, and the flight watchdog snapshots the querier's
// ring — which, because slow-query capture and exemplars share trace
// ids, names the exact queries that burned the budget. Ticks use a
// synthetic clock so the burn windows are deterministic. inspect, when
// set, runs before the cluster shuts down; its error fails the run.
func runSLO(s Scale, inspect func(sloForensics) error) (res *sloResult, err error) {
	o := ClusterOptions{
		Peers: s.Peers,
		// One-shot RPCs with a short timeout: overload should hurt — the
		// experiment measures detection, not the retry machinery's cure
		// (robustness.go prices that).
		Cfg: kadop.Config{SlowQuery: sloSlow, DHT: dht.Config{RPCTimeout: 250 * time.Millisecond}},
	}
	err = withCluster(o, s.dblp(s.records()), func(cl *Cluster) error {
		res, err = sloPhases(cl, s.Seed, inspect)
		return err
	})
	return res, err
}

func sloPhases(cl *Cluster, seed int64, inspect func(sloForensics) error) (*sloResult, error) {
	q := pattern.MustParse(Fig3Query)
	querier := cl.NonOwnerPeer(q)
	// Shared tracer: server-side spans join the querier's traces, so a
	// captured slow trace shows the whole cluster's part in the stall.
	tr := trace.New(64)
	for _, nd := range cl.Nodes {
		nd.SetTracer(tr)
	}
	rec := flight.New(2048)
	querier.Node().SetFlight(rec)

	dir, err := os.MkdirTemp("", "kadop-slo-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	wd := flight.NewWatchdog(rec, dir, time.Millisecond)

	reg := querier.Node().Registry()
	queries := reg.Counter("kadop_queries_total", "Queries evaluated by this peer.")
	qerrors := reg.Counter("kadop_query_errors_total", "Queries that failed (after retries and partial-result handling).")
	slowQueries := reg.Counter("kadop_slow_queries_total", "Queries at or over the Config.SlowQuery capture threshold.")
	var alerts []slo.Alert
	eng, err := slo.New(slo.Config{
		Objectives: []slo.Objective{
			{
				Name:        "query-availability",
				Description: "90% of queries succeed",
				Target:      0.9,
				Source: slo.CounterSource(
					func() int64 { return queries.Value() - qerrors.Value() },
					qerrors.Value,
				),
			},
			{
				Name:        "query-latency",
				Description: "90% of queries under the slow threshold",
				Target:      0.9,
				Source:      slo.LatencySource(querier.Node().Metrics(), metrics.OpQueryTotal, sloSlow),
			},
		},
		// Compressed windows: the experiment's synthetic clock advances
		// one second per tick, so a 2s/10s pair burns within one phase.
		Windows:  []slo.Window{{Short: 2 * time.Second, Long: 10 * time.Second, Burn: 2, Severity: "page"}},
		Registry: reg,
		OnAlert: func(a slo.Alert) {
			alerts = append(alerts, a)
			wd.Trip(a.String())
		},
	})
	if err != nil {
		return nil, err
	}

	clock := time.Now()
	tick := func() []slo.Status {
		clock = clock.Add(time.Second)
		return eng.Tick(clock)
	}
	runPhase := func(name string) sloPhase {
		ph := sloPhase{Phase: name}
		alertsBefore, slowBefore := len(alerts), slowQueries.Value()
		for i := 0; i < sloQueries; i++ {
			if _, err := query(querier, q, kadop.QueryOptions{}); err != nil {
				ph.Errors++
			}
		}
		statuses := tick()
		for _, st := range statuses {
			if st.Alerting {
				ph.Alerting++
			}
			for _, w := range st.Windows {
				ph.MaxBurn = max(ph.MaxBurn, w.ShortBurn)
			}
		}
		ph.Slow = slowQueries.Value() - slowBefore
		ph.Verdict = slo.Verdict(statuses)
		ph.Alerts = len(alerts) - alertsBefore
		return ph
	}

	tick() // baseline sample before any traffic
	res := &sloResult{Healthy: runPhase("healthy")}
	// Overload: every message suffers seeded jitter and some loss, so
	// queries cross the slow threshold (and some fail outright).
	cl.Net.SetFaults(dht.Faults{Seed: seed, DropProb: sloDrop, JitterMax: sloJitter})
	res.Overload = runPhase("overload")
	cl.Net.SetFaults(dht.Faults{})

	// The forensic chain: alert → watchdog dump on disk → query trace
	// ids in the dump → the same ids on the histogram's exemplars.
	if dumps := wd.Dumps(); len(dumps) > 0 {
		res.DumpPath = dumps[0]
		if st, err := os.Stat(res.DumpPath); err == nil {
			res.DumpBytes = st.Size()
		}
	}
	dump := rec.TakeDump("experiment")
	res.DumpEvents = len(dump.Events)
	queryIDs := dump.TraceIDs(flight.KindQuery)
	res.QueryTraces = len(queryIDs)
	exemplar := map[uint64]bool{}
	if h := querier.Node().Metrics().Hist(metrics.OpQueryTotal); h != nil {
		for _, e := range h.Exemplars() {
			exemplar[e.TraceID] = true
		}
	}
	res.ExemplarTraces = len(exemplar)
	for _, id := range queryIDs {
		if exemplar[id] {
			res.LinkedTraces++
		}
	}
	if inspect != nil {
		if err := inspect(sloForensics{Node: querier.Node(), Engine: eng}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *sloResult) report() ([]section, []bound) {
	rows := make([][]string, 0, 2)
	for _, p := range []sloPhase{r.Healthy, r.Overload} {
		rows = append(rows, []string{p.Phase, itoa(sloQueries), itoa(p.Errors), itoa(p.Slow),
			fmt.Sprintf("%.1fx", p.MaxBurn), itoa(p.Alerts), p.Verdict})
	}
	return []section{
			{"SLO burn-rate alerting under seeded overload (availability + latency targets 90%, 2x burn window)",
				[]string{"phase", "queries", "errors", "slow", "burn", "alerts", "verdict"}, rows},
			{title: fmt.Sprintf("\nflight dump: %s (%d bytes; ring %d events; %d query traces, %d exemplar traces, %d linked)",
				r.DumpPath, r.DumpBytes, r.DumpEvents, r.QueryTraces, r.ExemplarTraces, r.LinkedTraces)},
		},
		// The burn-rate alert stays quiet when healthy and fires under
		// overload, and the watchdog's dump is non-empty with query
		// trace ids that also appear as histogram exemplars: the full
		// forensic chain the observability plane promises.
		[]bound{
			{"alerts in the healthy phase", float64(r.Healthy.Alerts), "==", 0},
			{"objectives alerting after the healthy phase", float64(r.Healthy.Alerting), "==", 0},
			{fmt.Sprintf("slow queries under overload (jitter %v)", sloJitter), float64(r.Overload.Slow), ">=", 1},
			{"burn-rate alerts under overload", float64(r.Overload.Alerts), ">=", 1},
			{"bytes of the watchdog's flight dump", float64(r.DumpBytes), ">=", 1},
			{"events in the flight ring", float64(r.DumpEvents), ">=", 1},
			{"trace ids linking the flight dump to the exemplars", float64(r.LinkedTraces), ">=", 1},
		}
}
