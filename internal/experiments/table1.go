package experiments

import (
	"fmt"
	"math"

	"kadop/internal/dyadic"
	"kadop/internal/workload"
)

// table1Row is one dataset's measurement.
type table1Row struct {
	Dataset  string
	Elements int
	AvgCover float64
	TwoL     int // 2·l, where 2^l bounds the position space (as in Table 1)
}

type table1Result struct{ Rows []table1Row }

// runTable1 reproduces Table 1: the average size of the dyadic cover
// |D(e)| over element populations shaped like IMDB, XMark, SwissProt,
// NASA and DBLP. The paper's point — XML elements are narrow, so covers
// average ~1.2–1.6 intervals, far below the worst-case 2l — is what the
// measurement demonstrates. The shapes fix their own sizes.
func runTable1(s Scale) (*table1Result, error) {
	res := &table1Result{}
	for _, shape := range workload.Table1Shapes() {
		widths := shape.Widths(s.Seed)
		var sum float64
		maxPos := uint64(1)
		for _, w := range widths {
			sum += float64(dyadic.CoverSize(1, w))
			maxPos = max(maxPos, w)
		}
		res.Rows = append(res.Rows, table1Row{
			Dataset:  shape.Name,
			Elements: len(widths),
			AvgCover: sum / float64(len(widths)),
			TwoL:     2 * int(math.Ceil(math.Log2(float64(maxPos)))),
		})
	}
	return res, nil
}

func (r *table1Result) report() ([]section, []bound) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Dataset, itoa(row.Elements), fmt.Sprintf("%.2f", row.AvgCover), itoa(row.TwoL)})
	}
	return []section{{"Table 1 — average size of the dyadic cover",
		[]string{"data set", "element count", "|D(e)|", "2l"}, rows}}, nil
}
