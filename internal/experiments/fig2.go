package experiments

import (
	"fmt"
	"time"

	"kadop/internal/dpp"
	"kadop/internal/kadop"
	"kadop/internal/workload"
)

// fig2Publishers are the multi-publisher settings on the large network
// (the paper uses 25 and 50 of 500 peers); a setting larger than the
// network runs with one publisher per peer.
var fig2Publishers = []int{5, 10}

// fig2NaiveRecords caps the naive store's corpus: it is orders of
// magnitude slower by design, so it runs at the smallest size only.
const fig2NaiveRecords = 200

// fig2Row is one measurement of the indexing-time experiment.
type fig2Row struct {
	Setting   string
	Records   int
	SizeBytes int
	Elapsed   time.Duration
}

type fig2Result struct{ Rows []fig2Row }

// runFig2 reproduces Figure 2: total publishing time against the total
// size of published data, across two network sizes (s.Peers and two
// fifths of it; the paper compares 500 and 200), publisher counts, the
// DPP, and the naive store.
func runFig2(s Scale) (*fig2Result, error) {
	small, large := max(1, s.Peers*2/5), s.Peers
	type setting struct {
		peers, publishers int
		cfg               kadop.Config
		store             StoreKind
		sizes             []int
		note              string
	}
	settings := []setting{
		{peers: small, publishers: 1, sizes: s.Records},
		{peers: large, publishers: 1, sizes: s.Records},
		{peers: large, publishers: 1, sizes: s.Records, note: " (with DPP)",
			cfg: kadop.Config{UseDPP: true, DPP: dpp.Options{BlockSize: 512}}},
	}
	for _, pubs := range fig2Publishers {
		settings = append(settings, setting{peers: large, publishers: min(pubs, large), sizes: s.Records})
	}
	settings = append(settings, setting{peers: small, publishers: 1, store: NaiveStore, note: " (naive PAST-like store)",
		sizes: []int{min(s.Records[0], fig2NaiveRecords)}})

	res := &fig2Result{}
	for _, st := range settings {
		name := fmt.Sprintf("%d publisher, %d peers%s", st.publishers, st.peers, st.note)
		if st.publishers > 1 {
			name = fmt.Sprintf("%d publishers, %d peers", st.publishers, st.peers)
		}
		for _, records := range st.sizes {
			docs := s.dblp(records)
			var elapsed time.Duration
			err := withCluster(ClusterOptions{Peers: st.peers, Cfg: st.cfg, Store: st.store}, nil, func(cl *Cluster) (err error) {
				elapsed, err = cl.PublishAll(docs, st.publishers, 1)
				return err
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, fig2Row{Setting: name, Records: records, SizeBytes: workload.SizeBytes(docs), Elapsed: elapsed})
		}
	}
	return res, nil
}

func (r *fig2Result) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Setting, itoa(row.Records), mb(int64(row.SizeBytes)), ms(row.Elapsed)})
	}
	return []section{{"Figure 2 — indexing time vs published data",
		[]string{"setting", "records", "size(MB)", "publish time(ms)"}, rows}}, nil
}
