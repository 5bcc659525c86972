package experiments

import (
	"strings"
	"testing"

	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/workload"
)

// TestLoadDPPFlattens is the experiment's headline claim: splitting hot
// posting lists into distributed blocks spreads the serving load, so
// the Gini coefficient over per-peer bytes served drops.
func TestLoadDPPFlattens(t *testing.T) {
	res, err := runLoad(Scale{Records: []int{150}, Peers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Off.Gini <= 0 {
		t.Fatalf("DPP-off Gini = %v, want skew on a hot-term workload", res.Off.Gini)
	}
	if res.On.Gini >= res.Off.Gini {
		t.Errorf("DPP-on Gini %v not flatter than DPP-off %v", res.On.Gini, res.Off.Gini)
	}
	if res.On.MaxMeanRatio >= res.Off.MaxMeanRatio {
		t.Errorf("DPP-on max/mean %v not flatter than DPP-off %v", res.On.MaxMeanRatio, res.Off.MaxMeanRatio)
	}
	var offServed, onServed int64
	for _, p := range res.Off.Peers {
		offServed += p.BytesServed
	}
	for _, p := range res.On.Peers {
		onServed += p.BytesServed
	}
	if offServed == 0 || onServed == 0 {
		t.Fatalf("served bytes off=%d on=%d, want both > 0", offServed, onServed)
	}
	out := rendered(t, res)
	for _, want := range []string{"DPP off", "DPP on", "imbalance summary:", "Gini"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestOpNamesDeclared pins the op-name vocabulary: after a full
// publish+query workload, every operation the collector observed must
// be one of the metrics.Op* constants. A handler recording a stray
// string literal fails here instead of silently forking the metric
// namespace.
func TestOpNamesDeclared(t *testing.T) {
	cl, err := NewCluster(ClusterOptions{
		Peers: 6,
		Cfg:   kadop.Config{UseDPP: true, DPP: dpp.Options{BlockSize: 32}, CacheBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	docs := workload.DBLP{Seed: 1, Records: 80}.Documents()
	if _, err := cl.PublishAll(docs, 3, 1); err != nil {
		t.Fatal(err)
	}
	q := pattern.MustParse(Fig3Query)
	for _, strat := range []kadop.Strategy{kadop.Conventional, kadop.BloomReducer} {
		if _, err := cl.NonOwnerPeer(q).Query(q, kadop.QueryOptions{Strategy: strat}); err != nil {
			t.Fatal(err)
		}
	}
	col := cl.Nodes[0].Metrics()
	ops := col.Ops()
	if len(ops) == 0 {
		t.Fatal("collector observed no operations")
	}
	for _, op := range ops {
		if !metrics.IsDeclaredOp(op) {
			t.Errorf("recorded op %q is not a declared metrics.Op* constant", op)
		}
	}
}
