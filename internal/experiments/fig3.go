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

// fig3Link throttles bandwidth during the query measurement so list
// transfer dominates, as on the paper's testbed.
var fig3Link = dht.LinkModel{BytesPerSec: 512 << 10}

// fig3Parallel is the DPP fetch parallelism K (and the parallel join's
// width); fig3BlockSize the DPP block bound in postings.
const (
	fig3Parallel  = 4
	fig3BlockSize = 512
)

// fig3Row is one measurement.
type fig3Row struct {
	Records      int
	SizeBytes    int
	DPP          bool
	ParallelJoin bool
	IndexTime    time.Duration
	FirstAnswer  time.Duration
	Matches      int
}

type fig3Result struct{ Rows []fig3Row }

// runFig3 reproduces Figure 3: index-query processing time over growing
// indexed volumes, with and without the DPP, over links modelled by
// link.
func runFig3(s Scale, link dht.LinkModel) (*fig3Result, error) {
	res := &fig3Result{}
	q := pattern.MustParse(Fig3Query)
	for _, v := range []struct{ dpp, pjoin bool }{{false, false}, {true, false}, {true, true}} {
		for _, records := range s.Records {
			docs := s.dblp(records)
			cfg := kadop.Config{Parallel: fig3Parallel}
			if v.dpp {
				cfg.UseDPP = true
				cfg.DPP = dpp.Options{BlockSize: fig3BlockSize}
			}
			qopts := kadop.QueryOptions{IndexOnly: true}
			if v.pjoin {
				qopts.ParallelJoin = fig3Parallel
			}
			var best *kadop.Result
			err := withCluster(ClusterOptions{Peers: s.Peers, Cfg: cfg}, docs, func(cl *Cluster) error {
				// Publish fast, then throttle the links for the query
				// measurement (the paper measures query time on an
				// already-loaded index). Best of three runs damps
				// scheduler noise.
				cl.Net.SetModel(link)
				peer := cl.NonOwnerPeer(q)
				for run := 0; run < 3; run++ {
					r, err := peer.Query(q, qopts)
					if err != nil {
						return err
					}
					if best == nil || r.IndexTime < best.IndexTime {
						best = r
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, fig3Row{
				Records: records, SizeBytes: workload.SizeBytes(docs), DPP: v.dpp, ParallelJoin: v.pjoin,
				IndexTime: best.IndexTime, FirstAnswer: best.FirstAnswer, Matches: best.IndexMatches,
			})
		}
	}
	return res, nil
}

func (r *fig3Result) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		setting := "without DPP"
		if row.ParallelJoin {
			setting = "with DPP + parallel join"
		} else if row.DPP {
			setting = "with DPP"
		}
		rows = append(rows, []string{setting, itoa(row.Records), mb(int64(row.SizeBytes)),
			ms(row.IndexTime), ms(row.FirstAnswer), itoa(row.Matches)})
	}
	return []section{{fmt.Sprintf("Figure 3 — index query response time vs indexed data (query %s)", Fig3Query),
		[]string{"setting", "records", "size(MB)", "index time(ms)", "first answer(ms)", "matches"}, rows}}, nil
}
