package experiments

import (
	"fmt"

	"kadop/internal/postings"
	"kadop/internal/sbf"
	"kadop/internal/sid"
	"kadop/internal/xmltree"
)

// sensitivityFPs are the basic Bloom false-positive rates swept.
var sensitivityFPs = []float64{0.01, 0.05, 0.10, 0.20, 0.30}

// sensitivityRow is one measurement: the empirical false-positive rate
// of each filter variant at one basic rate.
type sensitivityRow struct {
	BasicFP       float64
	ABPsi         float64 // AB Filter with the paper's ψ traces
	ABSingleTrace float64 // AB Filter with one trace per level
	ABStartOnly   float64 // AB Filter with the simpler start-only probe
	DB            float64 // DB Filter
}

type sensitivityResult struct{ Rows []sensitivityRow }

// runSensitivity reproduces the Section 5.4 sensitivity analysis on a
// DBLP-shaped corpus. Both directions need a population of true
// negatives to measure the empirical rate against:
//
//   - AB side: a = inproceedings, b = title. Titles under articles have
//     no inproceedings ancestor — the negatives ABF(a) must reject.
//   - DB side: a = the record elements (article and inproceedings),
//     b = journal. Only articles carry a journal child, so the
//     inproceedings records are the negatives DBF(b) must reject.
func runSensitivity(s Scale) (*sensitivityResult, error) {
	docs := s.dblp(s.records())
	var la, lb postings.List         // AB side: a = inproceedings, b = title
	var recs, journals postings.List // DB side: a = records, b = journal
	for i, d := range docs {
		for _, tp := range xmltree.Extract(d.Doc, 1, sid.DocID(i), xmltree.ExtractOptions{SkipWords: true}) {
			switch tp.Term.Key() {
			case "l:inproceedings":
				la = append(la, tp.Posting)
				recs = append(recs, tp.Posting)
			case "l:article":
				recs = append(recs, tp.Posting)
			case "l:title":
				lb = append(lb, tp.Posting)
			case "l:journal":
				journals = append(journals, tp.Posting)
			}
		}
	}
	la.Sort()
	lb.Sort()
	recs.Sort()
	journals.Sort()

	hasAncestor := func(e sid.Posting) bool {
		for _, a := range la {
			if a.Contains(e) {
				return true
			}
		}
		return false
	}
	hasJournal := func(e sid.Posting) bool {
		for _, b := range journals {
			if e.Contains(b) {
				return true
			}
		}
		return false
	}

	res := &sensitivityResult{}
	for _, fp := range sensitivityFPs {
		abPsi := sbf.BuildAB(la, fp, sbf.DefaultPsiC)
		abOne := sbf.BuildAB(la, fp, 0)
		db := sbf.BuildDB(journals, fp, 0, 0)
		row := sensitivityRow{BasicFP: fp}
		row.ABPsi = empiricalRate(lb, hasAncestor, abPsi.MayHaveAncestor)
		row.ABSingleTrace = empiricalRate(lb, hasAncestor, abOne.MayHaveAncestor)
		row.ABStartOnly = empiricalRate(lb, hasAncestor, abPsi.MayHaveAncestorStartOnly)
		row.DB = empiricalRate(recs, hasJournal, db.MayHaveDescendant)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// empiricalRate measures the fraction of true negatives the probe
// wrongly accepts.
func empiricalRate(list postings.List, truth func(sid.Posting) bool, probe func(sid.Posting) bool) float64 {
	fp, neg := 0, 0
	for _, e := range list {
		if truth(e) {
			continue
		}
		neg++
		if probe(e) {
			fp++
		}
	}
	if neg == 0 {
		return 0
	}
	return float64(fp) / float64(neg)
}

func (r *sensitivityResult) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%.2f", row.BasicFP), fmt.Sprintf("%.4f", row.ABPsi),
			fmt.Sprintf("%.4f", row.ABSingleTrace), fmt.Sprintf("%.4f", row.ABStartOnly), fmt.Sprintf("%.4f", row.DB)})
	}
	return []section{{"Section 5.4 — empirical false-positive rates vs basic Bloom rate (query a//b)",
		[]string{"basic fp", "AB (psi)", "AB (single trace)", "AB (start-only)", "DB"}, rows}}, nil
}
