package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 0}, // sub-µs remainder truncates
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{8 * time.Microsecond, 3},
		{time.Millisecond, 10},     // 1024µs > 512µs(bucket 9), <= 1024µs(bucket 10)
		{time.Second, 20},          // 1e6µs <= 2^20µs
		{365 * 24 * time.Hour, 45}, // clamps into the last bucket
		{-time.Second, 0},          // callers clamp, bucketFor tolerates
	}
	for _, c := range cases {
		d := c.d
		if d < 0 {
			d = 0
		}
		if got := bucketFor(d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's bound must be exactly double the previous.
	for i := 1; i < histBuckets; i++ {
		if bucketBound(i) != 2*bucketBound(i-1) {
			t.Fatalf("bucket %d bound %v not double %v", i, bucketBound(i), bucketBound(i-1))
		}
	}
}

func TestBucketForBoundaryInverse(t *testing.T) {
	// A duration exactly on a bucket bound must land in that bucket.
	for i := 0; i < histBuckets; i++ {
		if got := bucketFor(bucketBound(i)); got != i {
			t.Errorf("bucketFor(bound(%d)) = %d", i, got)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := &Histogram{}
	// 100 observations all in bucket (1ms, 2ms].
	for i := 0; i < 100; i++ {
		h.Record(1500 * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	lo, hi := 1024*time.Microsecond, 2048*time.Microsecond
	if p50 <= lo || p50 > hi {
		t.Errorf("p50 %v outside bucket (%v, %v]", p50, lo, hi)
	}
	// Interpolation: p99 must sit higher in the bucket than p10.
	if h.Quantile(0.99) <= h.Quantile(0.10) {
		t.Errorf("p99 %v <= p10 %v", h.Quantile(0.99), h.Quantile(0.10))
	}
	// Monotone across quantiles.
	prev := time.Duration(0)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantile %v = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileSplitBuckets(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Record(10 * time.Microsecond) // bucket 4 (8µs, 16µs]
	}
	for i := 0; i < 10; i++ {
		h.Record(10 * time.Millisecond) // far tail
	}
	if p50 := h.Quantile(0.5); p50 > 16*time.Microsecond {
		t.Errorf("p50 %v should be in the low bucket", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 8*time.Millisecond {
		t.Errorf("p99 %v should be in the tail bucket", p99)
	}
	if h.Mean() < 500*time.Microsecond { // 0.9*10µs + 0.1*10ms ≈ 1ms
		t.Errorf("mean %v too low", h.Mean())
	}
}

func TestQuantileMaxReturnsTopBucketBound(t *testing.T) {
	// q=1.0 must land in the highest occupied bucket and, because the
	// full bucket population is below the rank, interpolate all the way
	// to that bucket's upper bound — never the histogram-wide maximum.
	h := &Histogram{}
	for i := 0; i < 50; i++ {
		h.Record(3 * time.Microsecond) // bucket 2 (2µs, 4µs]
	}
	for i := 0; i < 5; i++ {
		h.Record(100 * time.Microsecond) // bucket 7 (64µs, 128µs]
	}
	if got, want := h.Quantile(1.0), bucketBound(7); got != want {
		t.Errorf("q=1.0 = %v, want top occupied bucket bound %v", got, want)
	}
	// q just below 1 still sits inside the top bucket, not past it.
	if p := h.Quantile(0.999); p <= bucketBound(6) || p > bucketBound(7) {
		t.Errorf("q=0.999 = %v outside top bucket (%v, %v]", p, bucketBound(6), bucketBound(7))
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	// With one observation, total-1 = 0 so every q maps to rank 1 with
	// frac = 1/1: all quantiles return the observation's bucket upper
	// bound, not 0 and not an interpolated interior point.
	h := &Histogram{}
	h.Record(10 * time.Microsecond) // bucket 4 (8µs, 16µs]
	want := bucketBound(4)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != want {
			t.Errorf("single observation: Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// Same invariant at the extremes of the bucket range.
	h0 := &Histogram{}
	h0.Record(0) // bucket 0
	if got := h0.Quantile(1.0); got != bucketBound(0) {
		t.Errorf("single zero observation: q=1.0 = %v, want %v", got, bucketBound(0))
	}
	hTop := &Histogram{}
	hTop.Record(365 * 24 * time.Hour) // clamps into the last bucket
	if got := hTop.Quantile(1.0); got != bucketBound(histBuckets-1) {
		t.Errorf("single huge observation: q=1.0 = %v, want %v", got, bucketBound(histBuckets-1))
	}
	// Out-of-range q values clamp rather than panic or skew.
	if h.Quantile(-0.5) != want || h.Quantile(2.0) != want {
		t.Error("out-of-range q should clamp to [0, 1]")
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var h *Histogram
	h.Record(time.Second)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Error("nil histogram should report zeros")
	}
	h2 := &Histogram{}
	if h2.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Record(time.Duration(k+1) * time.Microsecond)
				_ = h.Quantile(0.5) // readers race with writers by design
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestCollectorObserve(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.Observe(OpLookup, time.Millisecond)
	}
	if c.Hist(OpLookup).Count() != 10 {
		t.Errorf("lookup count = %d", c.Hist(OpLookup).Count())
	}
	if q := c.Quantile(OpLookup, 0.95); q == 0 {
		t.Error("quantile should be nonzero")
	}
	if q := c.Quantile("never-observed", 0.95); q != 0 {
		t.Errorf("unobserved op quantile = %v", q)
	}
	if ops := c.Ops(); len(ops) != 1 || ops[0] != OpLookup {
		t.Errorf("ops = %v", ops)
	}
	snap := c.Snapshot()
	if !strings.Contains(snap, OpLookup) || !strings.Contains(snap, "p95") {
		t.Errorf("snapshot missing histogram lines:\n%s", snap)
	}
	c.Reset()
	if c.Hist(OpLookup) != nil {
		t.Error("reset should clear histograms")
	}

	var nilC *Collector
	nilC.Observe(OpLookup, time.Second) // must not panic
	if nilC.Quantile(OpLookup, 0.5) != 0 || nilC.Ops() != nil || nilC.ClassBytes() != nil {
		t.Error("nil collector histogram accessors should be zero")
	}
	if ex := nilC.Export(); len(ex.Ops) != 0 {
		t.Error("nil export should be empty")
	}
}

func TestCollectorObserveConcurrent(t *testing.T) {
	c := NewCollector()
	ops := []string{OpLookup, OpAppend, OpTwigJoin, OpPostingsTransfer}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Observe(ops[(k+j)%len(ops)], time.Duration(j)*time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, op := range ops {
		total += c.Hist(op).Count()
	}
	if total != 4000 {
		t.Errorf("total observations = %d, want 4000", total)
	}
}

func TestExport(t *testing.T) {
	c := NewCollector()
	c.Count(Postings, 100)
	c.CountEvent(EventRetry)
	c.Observe(OpQueryTotal, 2*time.Millisecond)
	ex := c.Export()
	if ex.Classes["postings"].Bytes != 100 || ex.Classes["postings"].Messages != 1 {
		t.Errorf("classes = %+v", ex.Classes)
	}
	if ex.Events["retries"] != 1 {
		t.Errorf("events = %+v", ex.Events)
	}
	st, ok := ex.Ops[OpQueryTotal]
	if !ok || st.Count != 1 || st.P50 == 0 || st.P50Str == "" {
		t.Errorf("ops = %+v", ex.Ops)
	}
}
