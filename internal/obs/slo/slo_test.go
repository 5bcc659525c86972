package slo

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kadop/internal/metrics"
)

// fakeSource is a settable cumulative good/total pair.
type fakeSource struct{ good, total atomic.Int64 }

func (f *fakeSource) add(good, errs int64) {
	f.good.Add(good)
	f.total.Add(good + errs)
}

func (f *fakeSource) source() Source {
	return func() (int64, int64) { return f.good.Load(), f.total.Load() }
}

func testWindows() []Window {
	return []Window{{Short: 5 * time.Second, Long: 30 * time.Second, Burn: 10, Severity: "page"}}
}

func TestNewValidates(t *testing.T) {
	var src fakeSource
	bad := []Config{
		{},
		{Objectives: []Objective{{Name: "x", Target: 1.0, Source: src.source()}}},
		{Objectives: []Objective{{Name: "x", Target: 0, Source: src.source()}}},
		{Objectives: []Objective{{Name: "", Target: 0.99, Source: src.source()}}},
		{Objectives: []Objective{{Name: "x", Target: 0.99}}},
		{Objectives: []Objective{
			{Name: "x", Target: 0.99, Source: src.source()},
			{Name: "x", Target: 0.9, Source: src.source()},
		}},
		{Objectives: []Objective{{Name: "x", Target: 0.99, Source: src.source()}},
			Windows: []Window{{Short: time.Minute, Long: time.Second, Burn: 2}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Objectives: []Objective{{Name: "x", Target: 0.99, Source: src.source()}}}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestBurnRateAndAlert(t *testing.T) {
	var src fakeSource
	var alerts []Alert
	reg := metrics.NewRegistry()
	e, err := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.99, Source: src.source()}},
		Windows:    testWindows(),
		Registry:   reg,
		OnAlert:    func(a Alert) { alerts = append(alerts, a) },
	})
	if err != nil {
		t.Fatal(err)
	}

	now := time.Unix(1000, 0)
	// Healthy traffic: 1000 good events over a few ticks.
	for i := 0; i < 5; i++ {
		src.add(200, 0)
		now = now.Add(time.Second)
		sts := e.Tick(now)
		if sts[0].Alerting {
			t.Fatalf("alerting while healthy at tick %d: %+v", i, sts[0])
		}
	}
	if len(alerts) != 0 {
		t.Fatalf("alerts while healthy: %v", alerts)
	}

	// Overload: 50% errors, burn = 0.5/0.01 = 50x >> 10x on both windows.
	var sts []Status
	for i := 0; i < 5; i++ {
		src.add(100, 100)
		now = now.Add(time.Second)
		sts = e.Tick(now)
	}
	if !sts[0].Alerting || sts[0].Severity != "page" {
		t.Fatalf("no alert under 50%% errors: %+v", sts[0])
	}
	ws := sts[0].Windows[0]
	if ws.ShortBurn < 10 || ws.LongBurn < 10 {
		t.Fatalf("burns = %.1f/%.1f, want >= 10", ws.ShortBurn, ws.LongBurn)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts fired %d times, want 1 (transition only): %v", len(alerts), alerts)
	}
	if a := alerts[0]; a.SLO != "avail" || a.Severity != "page" {
		t.Fatalf("alert = %+v", a)
	}
	if !strings.Contains(alerts[0].String(), "avail") {
		t.Errorf("alert string = %q", alerts[0].String())
	}

	// Registry mirror: alert gauge up, burn exported in millis.
	ex := reg.Export()
	if f, ok := ex["kadop_slo_alert"]; !ok {
		t.Fatal("kadop_slo_alert not exported")
	} else {
		var pageVal int64 = -1
		for _, s := range f.Series {
			if s.Labels["slo"] == "avail" && s.Labels["severity"] == "page" {
				pageVal = s.Value
			}
		}
		if pageVal != 1 {
			t.Fatalf("alert gauge = %d, want 1", pageVal)
		}
	}
	if f, ok := ex["kadop_slo_burn_rate_milli"]; !ok {
		t.Fatal("burn rate not exported")
	} else {
		var found bool
		for _, s := range f.Series {
			if s.Labels["window"] == "5s" && s.Value >= 10000 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no 5s burn >= 10000 milli: %+v", f.Series)
		}
	}

	// Recovery: healthy traffic ages the errors out of both windows.
	for i := 0; i < 40; i++ {
		src.add(500, 0)
		now = now.Add(time.Second)
		sts = e.Tick(now)
	}
	if sts[0].Alerting {
		t.Fatalf("still alerting after recovery: %+v", sts[0])
	}
	if len(alerts) != 1 {
		t.Fatalf("recovery fired more alerts: %v", alerts)
	}
}

func TestBudgetRemaining(t *testing.T) {
	if b := budgetRemaining(0.99, 1000, 1000); b != 1 {
		t.Errorf("clean budget = %v", b)
	}
	// 1% errors at a 99% target: budget exactly spent.
	if b := budgetRemaining(0.99, 990, 1000); b > 1e-9 || b < -1e-9 {
		t.Errorf("spent budget = %v, want 0", b)
	}
	if b := budgetRemaining(0.99, 900, 1000); b >= 0 {
		t.Errorf("violated budget = %v, want negative", b)
	}
	if b := budgetRemaining(0.99, 0, 0); b != 1 {
		t.Errorf("no-traffic budget = %v, want 1", b)
	}
}

func TestLatencySource(t *testing.T) {
	c := metrics.NewCollector()
	c.Observe(metrics.OpQueryTotal, 2*time.Millisecond)
	c.Observe(metrics.OpQueryTotal, 3*time.Millisecond)
	c.Observe(metrics.OpQueryTotal, 2*time.Second)

	src := LatencySource(c, metrics.OpQueryTotal, 4096*time.Microsecond)
	good, total := src()
	if good != 2 || total != 3 {
		t.Fatalf("latency source = %d/%d, want 2/3", good, total)
	}
	// Unobserved op: no traffic, no division by zero anywhere.
	g0, t0 := LatencySource(c, metrics.OpLookup, time.Millisecond)()
	if g0 != 0 || t0 != 0 {
		t.Fatalf("empty source = %d/%d", g0, t0)
	}
}

func TestCounterSource(t *testing.T) {
	var good, errs atomic.Int64
	good.Store(90)
	errs.Store(10)
	g, total := CounterSource(good.Load, errs.Load)()
	if g != 90 || total != 100 {
		t.Fatalf("counter source = %d/%d", g, total)
	}
}

func TestNoTrafficNoBurn(t *testing.T) {
	var src fakeSource
	e, err := New(Config{
		Objectives: []Objective{{Name: "idle", Target: 0.999, Source: src.source()}},
		Windows:    testWindows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		sts := e.Tick(now)
		if sts[0].Alerting || sts[0].Windows[0].ShortBurn != 0 {
			t.Fatalf("idle objective burning: %+v", sts[0])
		}
		if sts[0].BudgetRemaining != 1 {
			t.Fatalf("idle budget = %v", sts[0].BudgetRemaining)
		}
	}
}

func TestSampleTrim(t *testing.T) {
	var src fakeSource
	e, err := New(Config{
		Objectives: []Objective{{Name: "x", Target: 0.99, Source: src.source()}},
		Windows:    testWindows(),
		MaxSamples: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		src.add(10, 0)
		now = now.Add(time.Second)
		e.Tick(now)
	}
	if n := len(e.states[0].samples); n > 8 {
		t.Fatalf("samples = %d, want <= 8", n)
	}
}

func TestStatusWithoutTick(t *testing.T) {
	var src fakeSource
	e, err := New(Config{
		Objectives: []Objective{{Name: "x", Target: 0.99, Source: src.source()}},
		Windows:    testWindows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sts := e.Status()
	if len(sts) != 1 || sts[0].Alerting || len(sts[0].Windows) != 1 {
		t.Fatalf("pre-tick status = %+v", sts)
	}
}

func TestVerdict(t *testing.T) {
	if v := Verdict(nil); v != "ok" {
		t.Errorf("empty verdict = %q", v)
	}
	v := Verdict([]Status{
		{Name: "b", Alerting: true, Severity: "page"},
		{Name: "a", Alerting: true, Severity: "page"},
		{Name: "c", Alerting: true, Severity: "ticket"},
		{Name: "d"},
	})
	if v != "BURN page: a,b" {
		t.Errorf("verdict = %q", v)
	}
	if v := Verdict([]Status{{Name: "c", Alerting: true, Severity: "ticket"}}); v != "BURN ticket: c" {
		t.Errorf("ticket verdict = %q", v)
	}
}

func TestStartStop(t *testing.T) {
	var src fakeSource
	src.add(100, 0)
	e, err := New(Config{
		Objectives: []Objective{{Name: "x", Target: 0.99, Source: src.source()}},
		Windows:    testWindows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := e.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		sts := e.Status()
		if sts[0].Total == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background tick never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}
