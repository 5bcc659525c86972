package kadop

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"kadop/internal/dpp"
	"kadop/internal/obs/querylog"
	"kadop/internal/pattern"
)

// TestQueryLogRoundTrip runs real queries with Config.QueryLog set and
// checks the emitted JSONL records parse and carry the query's numbers:
// three conventional plans, then a Bloom reducer, whose filter traffic
// is classed by filter kind.
func TestQueryLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{
		UseDPP:   true,
		DPP:      dpp.Options{BlockSize: 64},
		QueryLog: querylog.New(&buf, querylog.Options{}),
	}
	c := newCluster(t, 4, cfg)
	publishAll(t, c, dblpDocs)

	q, err := pattern.Parse(`//article//author[. contains "Ullman"]`)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{Conventional, Conventional, Conventional, BloomReducer}
	for _, s := range strategies {
		res, err := c.peers[3].Query(q, QueryOptions{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatal("query found no answers; log record would be vacuous")
		}
	}

	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if got := rec["query"]; got != q.String() {
			t.Errorf("query = %v, want %v", got, q.String())
		}
		s := strategies[min(lines, len(strategies))-1]
		if rec["strategy"] != s.String() {
			t.Errorf("strategy = %v, want %v", rec["strategy"], s)
		}
		if fb, _ := rec["filter_bytes"].(float64); (fb > 0) != (s == BloomReducer) {
			t.Errorf("%v: filter_bytes = %v", s, rec["filter_bytes"])
		}
		if total, _ := rec["total_ns"].(float64); total <= 0 {
			t.Errorf("total_ns = %v, want > 0", rec["total_ns"])
		}
		if ans, _ := rec["answers"].(float64); ans == 0 {
			t.Errorf("answers = %v, want > 0", rec["answers"])
		}
		if pb, _ := rec["posting_bytes"].(float64); pb <= 0 {
			t.Errorf("posting_bytes = %v, want > 0", rec["posting_bytes"])
		}
	}
	if lines != len(strategies) {
		t.Fatalf("logged %d records, want %d", lines, len(strategies))
	}
}

// TestQueryLogSampling checks the sampled logger only records its share.
func TestQueryLogSampling(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{QueryLog: querylog.New(&buf, querylog.Options{SampleRate: 0.5})}
	c := newCluster(t, 2, cfg)
	publishAll(t, c, dblpDocs)

	q, err := pattern.Parse(`//article//author`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.peers[1].Query(q, QueryOptions{IndexOnly: true}); err != nil {
			t.Fatal(err)
		}
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
	}
	if lines != 2 {
		t.Errorf("rate 0.5 over 4 queries logged %d records, want 2", lines)
	}
}
