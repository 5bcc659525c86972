package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCollectorCounts(t *testing.T) {
	c := NewCollector()
	c.Count(Postings, 100)
	c.Count(Postings, 50)
	c.Count(Filters, 10)
	if c.Bytes(Postings) != 150 || c.Messages(Postings) != 2 {
		t.Errorf("postings: %d bytes, %d msgs", c.Bytes(Postings), c.Messages(Postings))
	}
	if c.TotalBytes() != 160 {
		t.Errorf("total = %d", c.TotalBytes())
	}
	snap := c.Snapshot()
	if !strings.Contains(snap, "postings") || !strings.Contains(snap, "filters") {
		t.Errorf("snapshot missing classes:\n%s", snap)
	}
	c.Reset()
	if c.TotalBytes() != 0 {
		t.Error("reset did not zero")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Count(Index, 1)
			}
		}()
	}
	wg.Wait()
	if c.Bytes(Index) != 8000 {
		t.Errorf("concurrent count = %d", c.Bytes(Index))
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Count(Index, 1) // must not panic
	if c.Bytes(Index) != 0 || c.TotalBytes() != 0 || c.Messages(Index) != 0 {
		t.Error("nil collector should report zeros")
	}
	c.Reset()
	if c.Snapshot() != "" {
		t.Error("nil snapshot should be empty")
	}
}
