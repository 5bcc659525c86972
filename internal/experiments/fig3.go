package experiments

import (
	"fmt"
	"time"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/workload"
)

// Fig3Query is the paper's stress-test query over the long author
// list (Figure 3 uses //article//author//Ullman).
const Fig3Query = `//article//author[. contains "Ullman"]`

// Fig3Options scale the Figure 3 experiment (index-query response time
// against indexed data volume, with and without the DPP).
type Fig3Options struct {
	Records  []int
	Peers    int
	Parallel int // DPP fetch parallelism K
	// Link models the network; the default throttles bandwidth so list
	// transfer dominates, as on the paper's testbed.
	Link *dht.LinkModel
	// BlockSize is the DPP block bound (postings).
	BlockSize int
	Seed      int64
}

func (o Fig3Options) defaults() Fig3Options {
	if len(o.Records) == 0 {
		o.Records = []int{1000, 2000, 3000, 4000}
	}
	if o.Peers <= 0 {
		o.Peers = 24
	}
	if o.Parallel <= 0 {
		o.Parallel = 4
	}
	if o.Link == nil {
		o.Link = &dht.LinkModel{BytesPerSec: 512 << 10} // 512 KB/s per link: transfer-bound, like the paper's long lists
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 512
	}
	return o
}

// Fig3Row is one measurement.
type Fig3Row struct {
	Records      int
	SizeBytes    int
	DPP          bool
	ParallelJoin bool
	IndexTime    time.Duration
	FirstAnswer  time.Duration
	Matches      int
}

// Fig3Result is the full Figure 3 sweep.
type Fig3Result struct {
	Rows []Fig3Row
}

// RunFig3 reproduces Figure 3: index-query processing time over growing
// indexed volumes, with and without the DPP.
func RunFig3(o Fig3Options) (*Fig3Result, error) {
	o = o.defaults()
	res := &Fig3Result{}
	q := pattern.MustParse(Fig3Query)
	type variant struct{ dpp, pjoin bool }
	for _, v := range []variant{{false, false}, {true, false}, {true, true}} {
		useDPP := v.dpp
		for _, records := range o.Records {
			docs := workload.DBLP{Seed: o.Seed, Records: records}.Documents()
			cfg := kadop.Config{Parallel: o.Parallel}
			if useDPP {
				cfg.UseDPP = true
				cfg.DPP = dpp.Options{BlockSize: o.BlockSize}
			}
			cl, err := NewCluster(ClusterOptions{Peers: o.Peers, Cfg: cfg})
			if err != nil {
				return nil, err
			}
			if _, err := cl.PublishAll(docs, 4); err != nil {
				cl.Close()
				return nil, err
			}
			// Publish fast, then enable the throttled link model for the
			// query measurement (the paper measures query time on an
			// already-loaded index). Take the best of three runs to damp
			// scheduler noise.
			cl.Net.SetModel(*o.Link)
			peer := cl.NonOwnerPeer(q)
			qopts := kadop.QueryOptions{IndexOnly: true}
			if v.pjoin {
				qopts.ParallelJoin = o.Parallel
			}
			var r *kadop.Result
			for run := 0; run < 3; run++ {
				rr, qerr := peer.Query(q, qopts)
				if qerr != nil {
					cl.Net.SetModel(dht.LinkModel{})
					cl.Close()
					return nil, qerr
				}
				if r == nil || rr.IndexTime < r.IndexTime {
					r = rr
				}
			}
			cl.Net.SetModel(dht.LinkModel{})
			cl.Close()
			res.Rows = append(res.Rows, Fig3Row{
				Records: records, SizeBytes: workload.SizeBytes(docs), DPP: useDPP,
				ParallelJoin: v.pjoin,
				IndexTime:    r.IndexTime, FirstAnswer: r.FirstAnswer, Matches: r.IndexMatches,
			})
		}
	}
	return res, nil
}

// Format renders the Figure 3 series.
func (r *Fig3Result) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		setting := "without DPP"
		if row.DPP {
			setting = "with DPP"
		}
		if row.ParallelJoin {
			setting = "with DPP + parallel join"
		}
		rows = append(rows, []string{
			setting,
			fmt.Sprintf("%d", row.Records),
			mb(int64(row.SizeBytes)),
			ms(row.IndexTime),
			ms(row.FirstAnswer),
			fmt.Sprintf("%d", row.Matches),
		})
	}
	return "Figure 3 — index query response time vs indexed data (query " + Fig3Query + ")\n" +
		table([]string{"setting", "records", "size(MB)", "index time(ms)", "first answer(ms)", "matches"}, rows)
}
