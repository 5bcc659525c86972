// Package experiments implements the paper's evaluation and the
// repository's gates as one ordered table of experiments. Each entry
// names the figure or section it reproduces (or "gate"), its default
// and smoke scales, and one run function; Experiment.Run owns
// everything around the entries: scaling, printing the result's tables
// and evaluating the bounds a gate returns. The kadop-bench command is
// flag parsing over this table.
//
// Scales default to laptop-sized runs (hundreds of documents, tens of
// peers); kadop-bench's -records and -peers raise them towards the
// paper's (hundreds of peers, hundreds of megabytes).
package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"kadop/internal/workload"
)

// Scale sizes one run. Records are the corpus sizes in DBLP records:
// a sweep runs each, a single-size experiment takes the last (Figure 9
// reads them as host documents, the store ablation as appended
// documents). Peers is the network size. A zero field takes the
// experiment's default.
type Scale struct {
	Records []int
	Peers   int
	Seed    int64
}

// or fills s's zero fields from d.
func (s Scale) or(d Scale) Scale {
	if len(s.Records) == 0 {
		s.Records = d.Records
	}
	if s.Peers <= 0 {
		s.Peers = d.Peers
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// records is the size of a single-size experiment.
func (s Scale) records() int { return s.Records[len(s.Records)-1] }

// dblp is the scale's DBLP corpus of the given size.
func (s Scale) dblp(records int) []workload.GeneratedDoc {
	return workload.DBLP{Seed: s.Seed, Records: records}.Documents()
}

// Experiment is one entry of the table.
type Experiment struct {
	Name string
	// Paper is the figure or section reproduced, "gate" for a check
	// `make gate-smoke` runs, or "" for a measurement beyond the paper.
	Paper string
	// Default is the scale of a plain run, Short the -short smoke scale
	// (zero: the default).
	Default, Short Scale
	run            func(Scale) (result, error)
}

// result is what a run function returns: the tables to print, in
// order, and the bounds a gate holds the run to (none for a
// measurement).
type result interface {
	report() ([]section, []bound)
}

// as adapts a typed run function to the table.
func as[R result](f func(Scale) (R, error)) func(Scale) (result, error) {
	return func(s Scale) (result, error) {
		r, err := f(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Table is every experiment, in the order `-exp all` runs them.
var Table = []Experiment{
	{Name: "fig2", Paper: "Figure 2", run: as(runFig2),
		Default: Scale{Records: []int{500, 1000, 1500, 2000}, Peers: 50}, Short: Scale{Records: []int{200, 400}, Peers: 50}},
	{Name: "fig3", Paper: "Figure 3", run: as(func(s Scale) (*fig3Result, error) { return runFig3(s, fig3Link) }),
		Default: Scale{Records: []int{1000, 2000, 3000, 4000}, Peers: 24}, Short: Scale{Records: []int{200, 400}, Peers: 24}},
	{Name: "traffic", Paper: "Section 4.3", run: as(runTraffic),
		Default: Scale{Records: []int{500, 1000, 1500, 2000}, Peers: 24}, Short: Scale{Records: []int{200, 400}, Peers: 24}},
	{Name: "table1", Paper: "Table 1", run: as(runTable1)},
	{Name: "sensitivity", Paper: "Section 5.4", run: as(runSensitivity),
		Default: Scale{Records: []int{3000}}, Short: Scale{Records: []int{400}}},
	fig7Entry("a"), fig7Entry("b"), fig7Entry("c"),
	{Name: "fig9", Paper: "Figure 9", run: as(runFig9),
		Default: Scale{Records: []int{250, 500, 750, 1000, 1250}, Peers: 12}, Short: Scale{Records: []int{200, 400}, Peers: 12}},
	{Name: "store", Paper: "Section 3 ablation", run: as(runStoreAblation), Default: Scale{Records: []int{100}}},
	{Name: "split", Paper: "Section 4.1 ablation", run: as(runSplitAblation),
		Default: Scale{Records: []int{1500}, Peers: 20}, Short: Scale{Records: []int{400}, Peers: 20}},
	{Name: "robust", run: as(runRobustness),
		Default: Scale{Records: []int{300}, Peers: 12}, Short: Scale{Records: []int{120}, Peers: 12}},
	{Name: "churn", Paper: "gate", run: as(func(s Scale) (*churnResult, error) { return runChurn(s, 0, 8) }),
		Default: Scale{Records: []int{240}, Peers: 200}, Short: Scale{Records: []int{100}, Peers: 40}},
	{Name: "cache", run: as(runCache),
		Default: Scale{Records: []int{400}, Peers: 10}, Short: Scale{Records: []int{150}, Peers: 10}},
	{Name: "load", Paper: "gate", run: as(runLoad),
		Default: Scale{Records: []int{300}, Peers: 12}, Short: Scale{Records: []int{150}, Peers: 8}},
	{Name: "durability", Paper: "gate", run: as(runDurability),
		Default: Scale{Records: []int{800}, Peers: 4}, Short: Scale{Records: []int{240}, Peers: 4}},
	{Name: "slo", Paper: "gate", run: as(func(s Scale) (*sloResult, error) { return runSLO(s, nil) }),
		Default: Scale{Records: []int{200}, Peers: 8}, Short: Scale{Records: []int{120}, Peers: 6}},
	{Name: "stats", Paper: "gate", run: as(runStats),
		Default: Scale{Records: []int{300}, Peers: 8}, Short: Scale{Records: []int{150}, Peers: 6}},
}

func fig7Entry(variant string) Experiment {
	return Experiment{Name: "fig7" + variant, Paper: "Figure 7(" + variant + ")",
		run:     as(func(s Scale) (*fig7Result, error) { return runFig7(variant, s) }),
		Default: Scale{Records: []int{4000}, Peers: 16}, Short: Scale{Records: []int{400}, Peers: 16}}
}

// Select resolves an -exp name: one entry, "gates" for every gate, or
// "all" for the whole table.
func Select(name string) ([]Experiment, bool) {
	var out []Experiment
	for _, e := range Table {
		if name == "all" || name == e.Name || (name == "gates" && e.Paper == "gate") {
			out = append(out, e)
		}
	}
	return out, len(out) > 0
}

// Names is the -exp vocabulary: every entry in table order, then the
// two groups.
func Names() []string {
	names := make([]string, 0, len(Table)+2)
	for _, e := range Table {
		names = append(names, e.Name)
	}
	return append(names, "gates", "all")
}

// Run runs the experiment at s (zero fields from e.Default) and returns
// its printed report. The error is the run's own, or the bounds that
// did not hold; a failed gate still returns the report it failed on.
func (e Experiment) Run(s Scale) (string, error) {
	out := ""
	res, err := e.run(s.or(e.Default))
	if err == nil {
		out, err = render(res)
	}
	if err != nil {
		err = fmt.Errorf("experiments: %s: %w", e.Name, err)
	}
	return out, err
}

// A bound is one inequality a gate holds its measurement to.
type bound struct {
	What  string
	Got   float64
	Op    string // "<=", "<", ">=" or "=="
	Limit float64
}

func (b bound) holds() bool {
	switch b.Op {
	case "<=":
		return b.Got <= b.Limit
	case "<":
		return b.Got < b.Limit
	case ">=":
		return b.Got >= b.Limit
	case "==":
		return b.Got == b.Limit
	}
	return false
}

func (b bound) String() string {
	num := func(x float64) string {
		if x == math.Trunc(x) {
			return fmt.Sprintf("%.0f", x)
		}
		return fmt.Sprintf("%.4g", x)
	}
	return fmt.Sprintf("%s: %s %s %s", b.What, num(b.Got), b.Op, num(b.Limit))
}

// A section is one printed block of a result: a title line, then the
// rows aligned under the header. A section without a header is text.
type section struct {
	title  string
	header []string
	rows   [][]string
}

// render prints a result's sections and bounds and fails when a bound
// does not hold.
func render(r result) (string, error) {
	secs, bounds := r.report()
	var b strings.Builder
	for i, s := range secs {
		if i > 0 && s.header != nil {
			b.WriteByte('\n')
		}
		if s.title != "" {
			b.WriteString(strings.TrimSuffix(s.title, "\n") + "\n")
		}
		if s.header != nil {
			writeTable(&b, s.header, s.rows)
		}
	}
	var failed []string
	for _, bd := range bounds {
		verdict := "ok"
		if !bd.holds() {
			verdict = "FAILED"
			failed = append(failed, bd.String())
		}
		fmt.Fprintf(&b, "gate: %s  %s\n", bd, verdict)
	}
	if len(failed) > 0 {
		return b.String(), fmt.Errorf("gate failed: %s", strings.Join(failed, "; "))
	}
	return b.String(), nil
}

// writeTable renders rows with aligned columns under the header.
func writeTable(b *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for _, r := range append([][]string{header}, rows...) {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	line(header)
	dashes := make([]string, len(widths))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	line(dashes)
	for _, r := range rows {
		line(r)
	}
}

func mb(n int64) string { return fmt.Sprintf("%.2f", float64(n)/1e6) }

// kb renders bytes as kilobytes, for transfers the MB rendering would
// flatten to 0.00.
func kb(n int64) string { return fmt.Sprintf("%.1f", float64(n)/1e3) }

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

func itoa[T ~int | ~int64](n T) string { return fmt.Sprint(n) }

// quantileDur is the nearest-rank q-quantile of the samples.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}
