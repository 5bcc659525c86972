package experiments

import (
	"strings"
	"testing"

	"kadop/internal/dht"
	"kadop/internal/fundex"
	"kadop/internal/kadop"
)

// The experiment runners double as integration tests: each smoke test
// runs its experiment at small scale and asserts the qualitative shape
// the paper reports (who wins, monotonicity, completeness), not
// absolute numbers.

func TestFig2Shape(t *testing.T) {
	res, err := RunFig2(Fig2Options{
		Records: []int{200, 400}, SmallPeers: 8, LargePeers: 16,
		Publishers: []int{4}, WithNaiveStore: false, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byRecords := map[string]map[int]float64{}
	for _, r := range res.Rows {
		if byRecords[r.Setting] == nil {
			byRecords[r.Setting] = map[int]float64{}
		}
		byRecords[r.Setting][r.Records] = r.Elapsed.Seconds()
	}
	// Publishing time grows with corpus size in every setting.
	for setting, m := range byRecords {
		if m[400] <= m[200]*0.5 {
			t.Errorf("%s: time did not grow with size: %v", setting, m)
		}
	}
	if !strings.Contains(res.Format(), "Figure 2") {
		t.Error("format header missing")
	}
}

func TestFig2NaiveStoreSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("naive store is slow by design")
	}
	res, err := RunFig2(Fig2Options{
		Records: []int{150}, SmallPeers: 6, LargePeers: 8,
		Publishers: []int{2}, WithNaiveStore: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var naive, plain float64
	for _, r := range res.Rows {
		if strings.Contains(r.Setting, "naive") {
			naive = r.Elapsed.Seconds()
		} else if strings.HasPrefix(r.Setting, "1 publisher, 6 peers") {
			plain = r.Elapsed.Seconds()
		}
	}
	if naive == 0 || plain == 0 {
		t.Fatalf("missing settings in %v", res.Rows)
	}
	if naive < 3*plain {
		t.Errorf("naive store should be much slower: naive=%.3fs plain=%.3fs", naive, plain)
	}
}

func TestFig3DPPFaster(t *testing.T) {
	// A strongly transfer-bound link keeps the DPP-vs-baseline margin
	// far above scheduler noise even on loaded CI machines.
	res, err := RunFig3(Fig3Options{
		Records: []int{3000}, Peers: 12, Seed: 3,
		Link: &dht.LinkModel{BytesPerSec: 256 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	var with, without, pjoin float64
	var matchesWith, matchesWithout, matchesPJ int
	for _, r := range res.Rows {
		switch {
		case r.ParallelJoin:
			pjoin = r.IndexTime.Seconds()
			matchesPJ = r.Matches
		case r.DPP:
			with = r.IndexTime.Seconds()
			matchesWith = r.Matches
		default:
			without = r.IndexTime.Seconds()
			matchesWithout = r.Matches
		}
	}
	if matchesPJ != matchesWithout {
		t.Fatalf("parallel join changed the answer: %d vs %d", matchesPJ, matchesWithout)
	}
	if pjoin >= without {
		t.Errorf("parallel join should also beat the baseline: %.3fs vs %.3fs", pjoin, without)
	}
	if matchesWith != matchesWithout {
		t.Fatalf("DPP changed the answer: %d vs %d", matchesWith, matchesWithout)
	}
	if with >= without {
		t.Errorf("DPP should cut response time: with=%.3fs without=%.3fs", with, without)
	}
	if !strings.Contains(res.Format(), "Figure 3") {
		t.Error("format header missing")
	}
}

func TestTrafficLinear(t *testing.T) {
	res, err := RunTraffic(TrafficOptions{Records: []int{300, 600}, Peers: 10, Queries: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small, big := res.Rows[0], res.Rows[1]
	if big.QueryTraffic <= small.QueryTraffic {
		t.Errorf("traffic should grow with indexed size: %d vs %d", small.QueryTraffic, big.QueryTraffic)
	}
	// Roughly linear: doubling the data should not quadruple traffic.
	if float64(big.QueryTraffic) > 3.5*float64(small.QueryTraffic) {
		t.Errorf("traffic grows super-linearly: %d -> %d", small.QueryTraffic, big.QueryTraffic)
	}
	if !strings.Contains(res.Format(), "Section 4.3") {
		t.Error("format header missing")
	}
}

func TestTable1InPaperBand(t *testing.T) {
	res, err := RunTable1(Table1Options{Elements: 30_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// The paper's measurements range over [1.23, 1.55]; the shapes
		// must land in the same narrow-element regime, far below 2l.
		if r.AvgCover < 1.0 || r.AvgCover > 2.2 {
			t.Errorf("%s: |D(e)| = %.2f out of band", r.Dataset, r.AvgCover)
		}
		if float64(r.TwoL) < 4*r.AvgCover {
			t.Errorf("%s: 2l=%d should dwarf |D(e)|=%.2f", r.Dataset, r.TwoL, r.AvgCover)
		}
	}
	if !strings.Contains(res.Format(), "Table 1") {
		t.Error("format header missing")
	}
}

func TestSensitivityShape(t *testing.T) {
	res, err := RunSensitivity(SensitivityOptions{Records: 1500, BasicFPs: []float64{0.01, 0.20}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.Rows[0], res.Rows[1]
	// AB with psi stays accurate even at a loose basic filter.
	if hi.ABPsi > 0.15 {
		t.Errorf("AB(psi) fp at basic 0.20 = %.3f, paper reports <0.10", hi.ABPsi)
	}
	// DB degrades as the basic rate grows and has a real error rate at
	// a loose basic filter (the paper's contrast with AB).
	if hi.DB < lo.DB {
		t.Errorf("DB fp should grow with basic rate: %.4f -> %.4f", lo.DB, hi.DB)
	}
	if hi.DB < 0.05 {
		t.Errorf("DB fp at basic 0.20 = %.4f; expected visible degradation", hi.DB)
	}
	if hi.ABPsi >= hi.DB {
		t.Errorf("AB(psi) (%.4f) should beat DB (%.4f) at basic 0.20", hi.ABPsi, hi.DB)
	}
	// The Theorem-1 probe is at least as accurate as start-only.
	if hi.ABPsi > hi.ABStartOnly+1e-9 {
		t.Errorf("Theorem-1 probe (%.4f) worse than start-only (%.4f)", hi.ABPsi, hi.ABStartOnly)
	}
	if !strings.Contains(res.Format(), "Section 5.4") {
		t.Error("format header missing")
	}
}

func TestFig7aShape(t *testing.T) {
	res, err := RunFig7(Fig7Options{Variant: "a", Records: 800, Peers: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byStrategy := map[kadop.Strategy]Fig7Row{}
	for _, r := range res.Rows {
		byStrategy[r.Strategy] = r
	}
	db := byStrategy[kadop.DBReducer]
	ab := byStrategy[kadop.ABReducer]
	// Figure 7(a): DB Reducer achieves a large reduction; AB Reducer is
	// worse than DB (it ships the large article AB filter plus the
	// unfiltered article list).
	if db.Normalized > 0.6 {
		t.Errorf("DB reducer normalized = %.3f, expected a large reduction", db.Normalized)
	}
	if ab.Normalized < db.Normalized {
		t.Errorf("AB (%.3f) should be costlier than DB (%.3f) on fig7a", ab.Normalized, db.Normalized)
	}
	if db.DBFilterBytes == 0 || ab.ABFilterBytes == 0 {
		t.Error("filter traffic breakdown missing")
	}
	if !strings.Contains(res.Format(), "Figure 7(a)") {
		t.Error("format header missing")
	}
}

func TestFig7cSubQueryWins(t *testing.T) {
	res, err := RunFig7(Fig7Options{Variant: "c", Records: 800, Peers: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	byStrategy := map[kadop.Strategy]Fig7Row{}
	for _, r := range res.Rows {
		byStrategy[r.Strategy] = r
	}
	sub := byStrategy[kadop.SubQueryReducer]
	db := byStrategy[kadop.DBReducer]
	// Figure 7(c): the title branch spoils the full-query strategies;
	// the sub-query reducer recovers most of the savings.
	if sub.Normalized >= db.Normalized {
		t.Errorf("sub-query (%.3f) should beat full DB reducer (%.3f) on fig7c", sub.Normalized, db.Normalized)
	}
	if sub.Normalized > 0.8 {
		t.Errorf("sub-query reducer normalized = %.3f, paper reports ~0.3", sub.Normalized)
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := RunFig9(Fig9Options{Docs: []int{150}, Peers: 8, Matches: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	answers := map[fundex.Mode]int{}
	for _, r := range res.Rows {
		answers[r.Mode] = r.Answers
	}
	// All three complete modes find the same 5 planted answers.
	for _, m := range []fundex.Mode{fundex.Fundex, fundex.Representative, fundex.Inline} {
		if answers[m] != 5 {
			t.Errorf("%v found %d answers, want 5", m, answers[m])
		}
	}
	// Inlining does not chase reverse pointers.
	for _, r := range res.Rows {
		if r.Mode == fundex.Inline && r.RevLookups != 0 {
			t.Errorf("inline mode performed %d rev lookups", r.RevLookups)
		}
		if r.Mode == fundex.Fundex && r.RevLookups == 0 {
			t.Error("fundex mode performed no rev lookups")
		}
	}
	if !strings.Contains(res.Format(), "Figure 9") {
		t.Error("format header missing")
	}
}

// TestStoreAblationShape pins the §3 comparison by what the stores
// write, not by how long they take: wall-clock at this scale is
// dominated by the per-append fsyncs both disk stores pay, and its ratio
// flakes on a loaded machine. The naive store rewrites its whole blob on
// every append, so its bytes grow with the square of the appends, while
// the B+-tree's grow with the pages each append dirties: doubling the
// appends about doubles the tree's bytes and quadruples the blob
// rewrites. (At this scale the tree still writes more in absolute terms:
// its WAL logs whole 4 KiB pages.)
func TestStoreAblationShape(t *testing.T) {
	written := map[string][2]int64{}
	for run, batches := range []int{20, 40} {
		// One seed: the longer run's first 20 batches are the shorter run's.
		res, err := RunStoreAblation(StoreAblationOptions{Batches: batches, BatchSize: 50, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string]StoreAblationRow{}
		for _, r := range res.Rows {
			rows[r.Store] = r
			w := written[r.Store]
			w[run] = r.BytesWritten
			written[r.Store] = w
		}
		bt, nv, mem := rows["btree"], rows["naive (PAST-like)"], rows["mem"]
		if bt.Postings != nv.Postings || bt.Postings != mem.Postings {
			t.Fatalf("stores disagree on content: btree %d, naive %d, mem %d", bt.Postings, nv.Postings, mem.Postings)
		}
		if bt.BytesWritten <= 0 || mem.BytesWritten != 0 {
			t.Fatalf("bytes written: btree %d, mem %d; want btree > 0, mem 0", bt.BytesWritten, mem.BytesWritten)
		}
		if run == 0 && !strings.Contains(res.Format(), "Section 3") {
			t.Error("format header missing")
		}
	}
	growth := func(store string) float64 {
		w := written[store]
		return float64(w[1]) / float64(w[0])
	}
	bt, nv := growth("btree"), growth("naive (PAST-like)")
	if nv < 3 || bt > 2.5 || nv < 1.5*bt {
		t.Errorf("bytes written at 40 appends over 20: naive %.2fx, btree %.2fx; want naive >= 3x (whole-blob rewrites), btree <= 2.5x, naive >= 1.5x btree's",
			nv, bt)
	}
}

func TestSplitAblationShape(t *testing.T) {
	res, err := RunSplitAblation(SplitAblationOptions{Records: 400, Peers: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var ordered, random SplitAblationRow
	for _, r := range res.Rows {
		if strings.HasPrefix(r.Variant, "ordered") {
			ordered = r
		} else {
			random = r
		}
	}
	if ordered.Matches != random.Matches {
		t.Fatalf("split policy changed the answer: %d vs %d", ordered.Matches, random.Matches)
	}
	if ordered.Matches == 0 {
		t.Fatal("workload should plant answers for the canonical query")
	}
	// The ordered split filters blocks by condition; random cannot, so
	// it ships at least as many posting bytes.
	if random.PostingBytes < ordered.PostingBytes {
		t.Errorf("random split shipped fewer bytes (%d) than ordered (%d)",
			random.PostingBytes, ordered.PostingBytes)
	}
	if !strings.Contains(res.Format(), "Section 4.1") {
		t.Error("format header missing")
	}
}
