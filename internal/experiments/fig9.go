package experiments

import (
	"fmt"
	"time"

	"kadop/internal/fundex"
	"kadop/internal/pattern"
	"kadop/internal/workload"
	"kadop/internal/xmltree"
)

// fig9Matches is the number of planted true answers (the paper's
// collection has 10).
const fig9Matches = 10

// fig9Row is one measurement.
type fig9Row struct {
	Mode       fundex.Mode
	Docs       int
	Elapsed    time.Duration
	Answers    int
	RevLookups int
}

type fig9Result struct{ Rows []fig9Row }

// runFig9 reproduces Figure 9: the query //article[contains(.//title,
// 'system') and contains(.//abstract,'interface')] over an INEX-HCO-like
// collection of s.Records hosts plus separate abstract files (the paper
// uses 5 000–25 000), under Fundex-simple, Fundex with representative
// data instances, and in-lining.
func runFig9(s Scale) (*fig9Result, error) {
	res := &fig9Result{}
	q := pattern.MustParse(workload.INEXQuery)
	for _, mode := range []fundex.Mode{fundex.Fundex, fundex.Representative, fundex.Inline} {
		for _, nDocs := range s.Records {
			corpus := workload.INEX{Seed: s.Seed, Docs: nDocs, Matches: fig9Matches, SecondType: true}.Generate()
			var ans *fundex.Answer
			err := withCluster(ClusterOptions{Peers: s.Peers}, nil, func(cl *Cluster) error {
				ixs := make([]*fundex.Indexer, len(cl.Peers))
				for i, p := range cl.Peers {
					ixs[i] = fundex.New(p, mode, corpus.Resolve)
				}
				for i, h := range corpus.Hosts {
					if _, err := ixs[i%len(ixs)].Publish([]byte(xmltree.Serialize(h.Doc)), h.URI); err != nil {
						return fmt.Errorf("fig9 %v publish: %w", mode, err)
					}
				}
				var err error
				if ans, err = ixs[0].Query(q); err != nil {
					return fmt.Errorf("fig9 %v query: %w", mode, err)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			hosts := 0
			for _, d := range ans.Docs {
				if !fundex.IsFunctionalDoc(d) {
					hosts++
				}
			}
			res.Rows = append(res.Rows, fig9Row{Mode: mode, Docs: nDocs, Elapsed: ans.Elapsed, Answers: hosts, RevLookups: ans.RevLookups})
		}
	}
	return res, nil
}

func (r *fig9Result) report() ([]section, []bound) {
	names := map[fundex.Mode]string{
		fundex.Fundex:         "Fundex-simple",
		fundex.Representative: "Fundex-representative data instance",
		fundex.Inline:         "Inlining",
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{names[row.Mode], itoa(row.Docs), ms(row.Elapsed), itoa(row.Answers), itoa(row.RevLookups)})
	}
	return []section{{"Figure 9 — query processing time with the Fundex (query " + workload.INEXQuery + ")",
		[]string{"setting", "host docs", "query time(ms)", "answer docs", "rev lookups"}, rows}}, nil
}
