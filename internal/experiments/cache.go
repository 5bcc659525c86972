package experiments

import (
	"errors"
	"fmt"
	"sync"

	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/workload"
)

// The cache deployment splits lists into DPP blocks of cacheBlockSize
// postings (small, so the corpus's popular terms overflow into real
// DPPs at laptop scale) and gives the querier a cacheBytes block cache;
// the warm pass repeats cacheRepeats times.
const (
	cacheBlockSize = 128
	cacheBytes     = 32 << 20
	cacheRepeats   = 3
)

// cachePass is the measurement of one pass over the query set.
type cachePass struct {
	Name          string
	Queries       int
	PostingsBytes int64 // posting-class wire bytes this pass moved
	Hits          int64
	Misses        int64
	Coalesced     int64
	BytesSaved    int64 // wire bytes served from cache instead
}

type cacheResult struct {
	Passes     []cachePass // cold, cacheRepeats warm, after-append
	CacheStats string
}

// runCache measures the posting-block cache on a repeated-query
// workload. One pass runs every query in the set; the cold pass starts
// with an empty cache (and runs the set twice concurrently, so
// coalescing shows up), warm passes rerun the set against the hot
// cache, and a final pass follows an index append to demonstrate
// generation-based invalidation: the touched blocks miss once and
// refill, without any invalidation traffic.
func runCache(s Scale) (res *cacheResult, err error) {
	docs := s.dblp(s.records())
	// Hold back a slice of the corpus for the invalidation pass.
	nExtra := max(1, len(docs)/10)
	extra := docs[len(docs)-nExtra:]
	cfg := kadop.Config{UseDPP: true, DPP: dpp.Options{BlockSize: cacheBlockSize}, CacheBytes: cacheBytes}
	err = withCluster(ClusterOptions{Peers: s.Peers, Cfg: cfg}, docs[:len(docs)-nExtra], func(cl *Cluster) error {
		res, err = cachePasses(cl, extra)
		return err
	})
	return res, err
}

// cachePasses runs the cold, warm and after-append passes on a loaded
// deployment; extra is the held-back corpus slice the last pass
// publishes first.
func cachePasses(cl *Cluster, extra []workload.GeneratedDoc) (*cacheResult, error) {
	// The repeated workload is the hot-term set: reuse shows up across
	// queries (shared terms) as well as across repetitions.
	queries := parseAll(hotQueries)
	querier := cl.NonOwnerPeer(queries[0])
	cache := querier.BlockCache()
	col := cl.Net.Collector

	res := &cacheResult{}
	col.Reset()
	cache.Reset()
	prev := cache.Stats()
	// pass runs the query set from `concurrent` goroutines at once and
	// measures what it moved and what the cache did.
	pass := func(name string, concurrent int) error {
		base := col.Bytes(metrics.Postings)
		var wg sync.WaitGroup
		errs := make([]error, concurrent)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, q := range queries {
					if _, errs[w] = query(querier, q, kadop.QueryOptions{}); errs[w] != nil {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("cache pass %q: %w", name, err)
		}
		st := cache.Stats()
		res.Passes = append(res.Passes, cachePass{
			Name:          name,
			Queries:       concurrent * len(queries),
			PostingsBytes: col.Bytes(metrics.Postings) - base,
			Hits:          st.Hits - prev.Hits,
			Misses:        st.Misses - prev.Misses,
			Coalesced:     st.Coalesced - prev.Coalesced,
			BytesSaved:    st.BytesSaved - prev.BytesSaved,
		})
		prev = st
		return nil
	}

	// Cold: empty cache, the set twice concurrently — the second runner
	// coalesces onto the first's fetches instead of doubling the bytes.
	if err := pass("cold", 2); err != nil {
		return nil, err
	}
	// Warm: the cache is hot; repeated sets should move ~no posting
	// bytes.
	for r := 1; r <= cacheRepeats; r++ {
		if err := pass(fmt.Sprintf("warm-%d", r), 1); err != nil {
			return nil, err
		}
	}
	// Invalidate: append a held-back slice of the corpus. Appends bump
	// the touched blocks' generations, so the next pass re-misses
	// exactly the refreshed blocks and refills.
	if _, err := cl.PublishAll(extra, 1, 1); err != nil {
		return nil, err
	}
	if err := pass("after-append", 1); err != nil {
		return nil, err
	}
	st := cache.Stats()
	res.CacheStats = fmt.Sprintf("entries %d, %s KB of %s KB, %d inserts, %d evictions",
		st.Entries, kb(st.Bytes), kb(st.Capacity), st.Inserts, st.Evictions)
	return res, nil
}

func (r *cacheResult) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Passes))
	for _, p := range r.Passes {
		rows = append(rows, []string{p.Name, itoa(p.Queries), kb(p.PostingsBytes), itoa(p.Hits), itoa(p.Misses),
			itoa(p.Coalesced), kb(p.BytesSaved)})
	}
	// One cold pass against the mean warm pass.
	cold, warm := r.Passes[0].PostingsBytes, int64(0)
	for _, p := range r.Passes[1 : 1+cacheRepeats] {
		warm += p.PostingsBytes
	}
	warm /= cacheRepeats
	ratio := "inf (warm moved 0 bytes)"
	if warm > 0 {
		ratio = fmt.Sprintf("%.1fx", float64(cold)/float64(warm))
	}
	return []section{
		{"Block cache — posting bytes moved per pass over the repeated query set",
			[]string{"pass", "queries", "postings(KB)", "hits", "misses", "coalesced", "saved(KB)"}, rows},
		{title: fmt.Sprintf("\ncold/warm posting-byte ratio: %s (cold %s KB vs warm %s KB per pass)\ncache: %s",
			ratio, kb(cold), kb(warm), r.CacheStats)},
	}, nil
}
