package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// storeBatchSize is the postings per appended document in the store
// ablation.
const storeBatchSize = 100

// storeRow is one store's measurement.
type storeRow struct {
	Store      string
	AppendTime time.Duration
	ScanTime   time.Duration
	Postings   int
	// BytesWritten is what the appends wrote: the B+-tree's pages and
	// WAL records, the naive store's whole-blob rewrites, 0 in memory.
	BytesWritten int64
}

type storeResult struct{ Rows []storeRow }

// runStoreAblation measures append and scan cost on the three store
// engines under the same workload: s.Records insertions of
// storeBatchSize postings into one term, in publication order — each
// batch is one new document of one of 50 publishers, whose document
// ids ascend, as a term's home peer receives them.
func runStoreAblation(s Scale) (*storeResult, error) {
	res := &storeResult{}
	rng := rand.New(rand.NewSource(s.Seed))
	batches := make([]postings.List, s.records())
	var nextDoc [50]sid.DocID
	for i := range batches {
		peer := rng.Intn(len(nextDoc))
		nextDoc[peer]++
		l := make(postings.List, storeBatchSize)
		for j := range l {
			pos := uint32(rng.Intn(1_000_000)*2 + 1)
			l[j] = sid.Posting{
				Peer: sid.PeerID(peer), Doc: nextDoc[peer],
				SID: sid.SID{Start: pos, End: pos + 1, Level: uint16(rng.Intn(8))},
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
				return nil, fmt.Errorf("%s: %w", st.name, err)
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
		res.Rows = append(res.Rows, storeRow{
			Store: st.name, AppendTime: appendTime, ScanTime: scanTime, Postings: n,
			BytesWritten: written,
		})
		st.s.Close()
	}
	return res, nil
}

func (r *storeResult) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Store, ms(row.AppendTime), ms(row.ScanTime), itoa(row.Postings),
			fmt.Sprintf("%.1f", float64(row.BytesWritten)/1024)})
	}
	return []section{{"Section 3 ablation — local store engines under the same append workload",
		[]string{"store", "append time(ms)", "scan time(ms)", "postings", "written(KiB)"}, rows}}, nil
}

// The Section 4.1 split comparison runs DPP blocks of splitBlockSize
// postings over splitLink.
const splitBlockSize = 512

var splitLink = dht.LinkModel{BytesPerSec: 1 << 20}

// splitRow is one variant's measurement.
type splitRow struct {
	Variant      string
	IndexTime    time.Duration
	PostingBytes int64
	Matches      int
}

type splitResult struct{ Rows []splitRow }

// runSplitAblation compares ordered range partitioning against the
// randomised split on the Figure 3 query: both parallelise transfers,
// but only the ordered split supports condition filtering and
// order-preserving concatenation (the paper found the random variant
// "a few times smaller" in benefit).
func runSplitAblation(s Scale) (*splitResult, error) {
	res := &splitResult{}
	q := pattern.MustParse(Fig3Query)
	docs := s.dblp(s.records())
	for _, variant := range []struct {
		name   string
		random bool
	}{{"ordered split", false}, {"random split", true}} {
		cfg := kadop.Config{
			UseDPP: true,
			DPP:    dpp.Options{BlockSize: splitBlockSize, RandomSplit: variant.random},
		}
		err := withCluster(ClusterOptions{Peers: s.Peers, Cfg: cfg}, docs, func(cl *Cluster) error {
			cl.Net.Collector.Reset()
			cl.Net.SetModel(splitLink)
			r, err := cl.NonOwnerPeer(q).Query(q, kadop.QueryOptions{IndexOnly: true})
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, splitRow{Variant: variant.name, IndexTime: r.IndexTime,
				PostingBytes: cl.Net.Collector.Bytes(metrics.Postings), Matches: r.IndexMatches})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *splitResult) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Variant, ms(row.IndexTime), mb(row.PostingBytes), itoa(row.Matches)})
	}
	return []section{{"Section 4.1 ablation — ordered vs randomised DPP split (query " + Fig3Query + ")",
		[]string{"variant", "index time(ms)", "postings(MB)", "matches"}, rows}}, nil
}
