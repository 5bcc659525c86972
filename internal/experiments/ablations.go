package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/workload"
)

// StoreAblationOptions scale the Section 3 store comparison: the cost
// of building and reading an index with the B+-tree versus the
// PAST-like naive store, the change the paper credits with 2–3 orders
// of magnitude of publishing speed-up.
type StoreAblationOptions struct {
	// Batches and BatchSize define the append workload: Batches
	// insertions of BatchSize postings into one term, in publication
	// order — each batch is one new document of one of 50 publishers,
	// whose document ids ascend, as a term's home peer receives them.
	Batches   int
	BatchSize int
	Seed      int64
}

func (o StoreAblationOptions) defaults() StoreAblationOptions {
	if o.Batches <= 0 {
		o.Batches = 100
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 100
	}
	return o
}

// StoreAblationRow is one store's measurement.
type StoreAblationRow struct {
	Store      string
	AppendTime time.Duration
	ScanTime   time.Duration
	Postings   int
	// BytesWritten is what the appends wrote: the B+-tree's pages and
	// WAL records, the naive store's whole-blob rewrites, 0 in memory.
	BytesWritten int64
}

// StoreAblationResult is the store comparison.
type StoreAblationResult struct {
	Rows []StoreAblationRow
}

// RunStoreAblation measures append and scan cost on the three store
// engines under the same workload.
func RunStoreAblation(o StoreAblationOptions) (*StoreAblationResult, error) {
	o = o.defaults()
	res := &StoreAblationResult{}
	rng := rand.New(rand.NewSource(o.Seed))
	batches := make([]postings.List, o.Batches)
	var nextDoc [50]sid.DocID
	for i := range batches {
		peer := rng.Intn(len(nextDoc))
		nextDoc[peer]++
		l := make(postings.List, o.BatchSize)
		for j := range l {
			s := uint32(rng.Intn(1_000_000)*2 + 1)
			l[j] = sid.Posting{
				Peer: sid.PeerID(peer), Doc: nextDoc[peer],
				SID: sid.SID{Start: s, End: s + 1, Level: uint16(rng.Intn(8))},
			}
		}
		l.Sort()
		batches[i] = l.Dedup()
	}

	dir, err := os.MkdirTemp("", "kadop-store-abl-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	bt, err := store.OpenBTree(dir + "/abl.bt")
	if err != nil {
		return nil, err
	}
	nv, err := newNaiveStore(dir + "/naive")
	if err != nil {
		return nil, err
	}
	stores := []struct {
		name    string
		s       store.Store
		written func() int64
	}{
		{"btree", bt, bt.BytesWritten},
		{"naive (PAST-like)", nv, nv.bytesWritten},
		{"mem", store.NewMem(), func() int64 { return 0 }},
	}

	for _, st := range stores {
		written := st.written()
		start := time.Now()
		for _, b := range batches {
			if err := st.s.Append("l:author", b); err != nil {
				return nil, fmt.Errorf("experiments: store ablation %s: %w", st.name, err)
			}
		}
		appendTime := time.Since(start)
		written = st.written() - written
		start = time.Now()
		n := 0
		if err := st.s.Scan("l:author", sid.MinPosting, func(sid.Posting) bool { n++; return true }); err != nil {
			return nil, err
		}
		scanTime := time.Since(start)
		res.Rows = append(res.Rows, StoreAblationRow{
			Store: st.name, AppendTime: appendTime, ScanTime: scanTime, Postings: n,
			BytesWritten: written,
		})
		st.s.Close()
	}
	return res, nil
}

// Format renders the store comparison.
func (r *StoreAblationResult) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Store, ms(row.AppendTime), ms(row.ScanTime), fmt.Sprintf("%d", row.Postings),
			fmt.Sprintf("%.1f", float64(row.BytesWritten)/1024),
		})
	}
	return "Section 3 ablation — local store engines under the same append workload\n" +
		table([]string{"store", "append time(ms)", "scan time(ms)", "postings", "written(KiB)"}, rows)
}

// SplitAblationOptions scale the Section 4.1 comparison of the ordered
// DPP split against the randomised split.
type SplitAblationOptions struct {
	Records   int
	Peers     int
	BlockSize int
	Parallel  int
	Link      *dht.LinkModel
	Seed      int64
}

func (o SplitAblationOptions) defaults() SplitAblationOptions {
	if o.Records <= 0 {
		o.Records = 1500
	}
	if o.Peers <= 0 {
		o.Peers = 20
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 512
	}
	if o.Parallel <= 0 {
		o.Parallel = 4
	}
	if o.Link == nil {
		o.Link = &dht.LinkModel{BytesPerSec: 1 << 20}
	}
	return o
}

// SplitAblationRow is one variant's measurement.
type SplitAblationRow struct {
	Variant      string
	IndexTime    time.Duration
	PostingBytes int64
	Matches      int
}

// SplitAblationResult compares the DPP split policies.
type SplitAblationResult struct {
	Rows []SplitAblationRow
}

// RunSplitAblation compares ordered range partitioning against the
// randomised split on the Figure 3 query: both parallelise transfers,
// but only the ordered split supports condition filtering and
// order-preserving concatenation (the paper found the random variant
// "a few times smaller" in benefit).
func RunSplitAblation(o SplitAblationOptions) (*SplitAblationResult, error) {
	o = o.defaults()
	res := &SplitAblationResult{}
	q := pattern.MustParse(Fig3Query)
	docs := workload.DBLP{Seed: o.Seed, Records: o.Records}.Documents()
	for _, variant := range []struct {
		name   string
		random bool
	}{{"ordered split", false}, {"random split", true}} {
		cfg := kadop.Config{
			UseDPP:   true,
			DPP:      dpp.Options{BlockSize: o.BlockSize, RandomSplit: variant.random},
			Parallel: o.Parallel,
		}
		cl, err := NewCluster(ClusterOptions{Peers: o.Peers, Cfg: cfg})
		if err != nil {
			return nil, err
		}
		if _, err := cl.PublishAll(docs, 4); err != nil {
			cl.Close()
			return nil, err
		}
		cl.Net.Collector.Reset()
		cl.Net.SetModel(*o.Link)
		r, err := cl.NonOwnerPeer(q).Query(q, kadop.QueryOptions{IndexOnly: true})
		cl.Net.SetModel(dht.LinkModel{})
		if err != nil {
			cl.Close()
			return nil, err
		}
		res.Rows = append(res.Rows, SplitAblationRow{
			Variant:      variant.name,
			IndexTime:    r.IndexTime,
			PostingBytes: postingBytes(cl),
			Matches:      r.IndexMatches,
		})
		cl.Close()
	}
	return res, nil
}

func postingBytes(cl *Cluster) int64 {
	return cl.Net.Collector.Bytes("postings")
}

// Format renders the split comparison.
func (r *SplitAblationResult) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant, ms(row.IndexTime), mb(row.PostingBytes), fmt.Sprintf("%d", row.Matches),
		})
	}
	return "Section 4.1 ablation — ordered vs randomised DPP split (query " + Fig3Query + ")\n" +
		table([]string{"variant", "index time(ms)", "postings(MB)", "matches"}, rows)
}
