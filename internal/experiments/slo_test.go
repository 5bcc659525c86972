package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"kadop/internal/admin"
	"kadop/internal/obs/cluster"
	"kadop/internal/obs/flight"
)

// TestSLOForensicChain pins the observability plane end to end, over
// real HTTP, the way an operator would walk it: under fault injection
// the burn-rate alert fires, /debug/flight dumps the querier's ring
// with the trace ids of the captured slow queries, the latency
// histogram's exemplars on /metrics carry those same trace ids, and
// the kadop-top report (BuildReport over the scrape) renders the SLO
// burn verdict. It runs under -race in make check, so the recorder,
// engine and exporter are also shaken for data races.
func TestSLOForensicChain(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded overload run takes a few seconds")
	}
	res, err := runSLO(Scale{Records: []int{100}, Peers: 5, Seed: 1}, func(f sloForensics) error {
		addr, stop, err := admin.Serve("127.0.0.1:0", admin.Options{
			Collector: f.Node.Metrics(),
			Node:      f.Node,
			SLO:       f.Engine,
		})
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer stop()

		// /debug/flight: the ring dump names the captured queries.
		resp, err := http.Get("http://" + addr + "/debug/flight?kind=query")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/debug/flight: status %d", resp.StatusCode)
		}
		var dump flight.Dump
		if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
			return fmt.Errorf("/debug/flight: %w", err)
		}
		flightIDs := map[uint64]bool{}
		for _, id := range dump.TraceIDs(flight.KindQuery) {
			flightIDs[id] = true
		}
		if len(flightIDs) == 0 {
			return fmt.Errorf("/debug/flight dump has no query trace ids (%d events)", len(dump.Events))
		}

		// /metrics via the kadop-top scraper: exemplars link back to
		// the flight dump, and the report renders the burn verdict.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var sc cluster.Scraper
		scrapes, err := sc.ScrapeAll(ctx, []string{addr})
		if err != nil {
			return err
		}
		rep := cluster.BuildReport(scrapes, 5)
		if len(rep.Exemplars) == 0 {
			return fmt.Errorf("scrape found no histogram exemplars")
		}
		linked := 0
		for _, e := range rep.Exemplars {
			if flightIDs[e.TraceID] {
				linked++
			}
		}
		if linked == 0 {
			return fmt.Errorf("no exemplar trace id (%d scraped) appears in the flight dump (%d ids)",
				len(rep.Exemplars), len(flightIDs))
		}
		if !strings.HasPrefix(rep.SLOVerdict, "BURN") {
			return fmt.Errorf("report verdict = %q, want a BURN verdict", rep.SLOVerdict)
		}
		if out := rep.Format(); !strings.Contains(out, "slo: BURN") || !strings.Contains(out, "slow exemplars:") {
			return fmt.Errorf("kadop-top report misses the slo verdict or exemplar section:\n%s", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rendered(t, res))
}
