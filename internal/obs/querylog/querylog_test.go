package querylog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Log(Record{
		Query:         `//article//author[. contains "Ullman"]`,
		Strategy:      "conventional",
		IndexNS:       DurNS(3 * time.Millisecond),
		FirstAnswerNS: DurNS(time.Millisecond),
		TotalNS:       DurNS(5 * time.Millisecond),
		PostingBytes:  1500,
		CacheHits:     2,
		Hops:          7,
		Retries:       1,
		IndexMatches:  4,
		CandidateDocs: 3,
		Answers:       4,
	})

	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("want exactly one JSONL line, got:\n%s", buf.String())
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, line)
	}
	checks := map[string]any{
		"query":           `//article//author[. contains "Ullman"]`,
		"strategy":        "conventional",
		"index_ns":        float64(3e6),
		"first_answer_ns": float64(1e6),
		"total_ns":        float64(5e6),
		"posting_bytes":   float64(1500),
		"cache_hits":      float64(2),
		"hops":            float64(7),
		"retries":         float64(1),
		"index_matches":   float64(4),
		"candidate_docs":  float64(3),
		"answers":         float64(4),
		"incomplete":      false,
	}
	for k, want := range checks {
		if got[k] != want {
			t.Errorf("%s = %v (%T), want %v", k, got[k], got[k], want)
		}
	}
	if _, ok := got["time"]; !ok {
		t.Error("record missing slog timestamp")
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Log(Record{Query: "x"}) // must not panic
}

func TestEveryLineParses(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	for i := 0; i < 10; i++ {
		l.Log(Record{Query: "q", Answers: i})
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
	}
	if lines != 10 {
		t.Errorf("10 records wrote %d lines, want 10", lines)
	}
}
