package kadop

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"kadop/internal/dpp"
	"kadop/internal/obs/querylog"
	"kadop/internal/pattern"
	"kadop/internal/trace"
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
		QueryLog: querylog.New(&buf),
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

// TestBlocksFetchedAgree runs a query without a block cache over an
// inline and an overflowed term: the dpp:fetch spans, the query's cost
// actuals and its query-log record must count the same blocks fetched,
// the inline list included.
func TestBlocksFetchedAgree(t *testing.T) {
	var buf bytes.Buffer
	c := newCluster(t, 4, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 4}, QueryLog: querylog.New(&buf)})
	publishAll(t, c, dblpDocs)
	querier := c.peers[3]
	querier.Node().SetTracer(trace.New(4))
	res, err := querier.Query(pattern.MustParse(`//article//author[. contains "Ullman"]`), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inline, overflowed := 0, 0
	for _, pl := range res.Plans {
		if pl != nil && pl.Inline {
			inline++
		} else if pl != nil && pl.Blocks > 0 {
			overflowed++
		}
	}
	if inline == 0 || overflowed == 0 {
		t.Fatalf("setup: want an inline and an overflowed term, plans %+v", res.Plans)
	}
	var spans int64
	for _, s := range res.Trace.Export().Spans {
		for _, a := range s.Attrs {
			if s.Name == "dpp:fetch" && a.Key == "fetched" {
				n, _ := strconv.ParseInt(a.Value, 10, 64)
				spans += n
			}
		}
	}
	var rec querylog.Record
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if spans != res.Cost.BlocksFetched || int64(rec.BlocksFetched) != res.Cost.BlocksFetched || spans == 0 {
		t.Fatalf("blocks fetched: dpp:fetch spans %d, cost %d, query log %d", spans, res.Cost.BlocksFetched, rec.BlocksFetched)
	}
}
