package experiments

import (
	"errors"
	"sync"

	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/workload"
)

// trafficQueries is the workload size; the paper submits 50 queries
// from 50 peers, here one per peer in turn.
const trafficQueries = 50

// trafficRow is one measurement.
type trafficRow struct {
	Records      int
	SizeBytes    int
	QueryTraffic int64 // bytes moved by query processing
	IndexTraffic int64 // bytes moved during publication
}

type trafficResult struct{ Rows []trafficRow }

// runTraffic reproduces the Section 4.3 traffic experiment: a workload
// of queries over long posting lists, submitted concurrently from many
// peers, measuring the total transferred volume per indexed size. The
// paper reports 32/66/95/127 MB for 200–800 MB indexed — linear growth,
// which is the property checked here.
func runTraffic(s Scale) (*trafficResult, error) {
	res := &trafficResult{}
	queries := workload.QueryMix(s.Seed, trafficQueries)
	for _, records := range s.Records {
		docs := s.dblp(records)
		row := trafficRow{Records: records, SizeBytes: workload.SizeBytes(docs)}
		err := withCluster(ClusterOptions{Peers: s.Peers}, docs, func(cl *Cluster) error {
			col := cl.Net.Collector
			row.IndexTraffic = col.Bytes(metrics.Index)
			col.Reset()
			var wg sync.WaitGroup
			errs := make([]error, len(queries))
			for i, qs := range queries {
				wg.Add(1)
				go func(i int, qs string) {
					defer wg.Done()
					q, err := pattern.Parse(qs)
					if err == nil {
						_, err = cl.Peers[i%len(cl.Peers)].Query(q, kadop.QueryOptions{IndexOnly: true})
					}
					errs[i] = err
				}(i, qs)
			}
			wg.Wait()
			row.QueryTraffic = col.Bytes(metrics.Postings) + col.Bytes(metrics.Control)
			return errors.Join(errs...)
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (r *trafficResult) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{itoa(row.Records), mb(int64(row.SizeBytes)), mb(row.QueryTraffic), mb(row.IndexTraffic)})
	}
	return []section{{"Section 4.3 — traffic for the 50-query workload vs indexed data",
		[]string{"records", "indexed(MB)", "query traffic(MB)", "index traffic(MB)"}, rows}}, nil
}
