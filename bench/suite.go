package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// suiteRun is one pass over every workload, untraced then traced.
type suiteRun struct {
	e2e, layer map[string]resultLine // by workload
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runSuite runs every workload end to end and traced, repeat times on
// this one build, prints every metric by name with its unit, and
// compares the repetitions: end-to-end metrics must agree within their
// bounds and the serial traced pass's exact counts must be identical.
func runSuite(work string, seed int64, seconds float64, repeat int, outDir string, short bool) int {
	fmt.Printf("kadop bench: seed=%d seconds=%g repeat=%d GOMAXPROCS=%d nproc=%d %s commit=%s clients=min(2,nproc)\n",
		seed, seconds, repeat, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	code := 0
	var runs []suiteRun
	for r := 0; r < repeat; r++ {
		run := suiteRun{e2e: map[string]resultLine{}, layer: map[string]resultLine{}}
		for _, traced := range []bool{false, true} {
			for _, s := range specs {
				line, err := runOne(s, seed, seconds, traced, work, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
					return 1
				}
				if !line.Correct {
					code = 1
				}
				if traced {
					run.layer[s.name] = line
				} else {
					run.e2e[s.name] = line
				}
			}
		}
		fmt.Printf("\n== run %d of %d ==\n", r+1, repeat)
		printTable("end to end (no tracer, no wrappers)", endToEnd, run.e2e)
		printTable("per layer (serial traced pass)", perLayer, run.layer)
		runs = append(runs, run)
	}
	for r := 1; r < len(runs); r++ {
		for _, msg := range compareRuns(runs[0], runs[r], !short) {
			fmt.Printf("DISAGREE run 1 vs run %d: %s\n", r+1, msg)
			code = 1
		}
	}
	if repeat > 1 && code == 0 {
		what := "end-to-end metrics within their bounds, exact counts identical"
		if short {
			what = "exact counts identical (2 s windows are too short to compare timings)"
		}
		fmt.Printf("\nall %d runs agree: %s\n", repeat, what)
	}
	return code
}

func printTable(title string, defs []metricDef, byWorkload map[string]resultLine) {
	fmt.Printf("\n%s\n%-42s %-6s", title, "metric", "unit")
	for _, s := range specs {
		fmt.Printf(" %16s", s.name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-42s %-6s", d.Name, d.Unit)
		for _, s := range specs {
			fmt.Printf(" %16.6g", byWorkload[s.name].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-42s %-6s", "failed/attempted", "ops")
	for _, s := range specs {
		l := byWorkload[s.name]
		fmt.Printf(" %16s", fmt.Sprintf("%d/%d", l.Failed, l.Attempted))
	}
	fmt.Println()
}

// compareRuns lists every disagreement between two runs of one build:
// exact counts that differ and, with timings set, end-to-end metrics
// further apart than their bound.
func compareRuns(a, b suiteRun, timings bool) []string {
	var out []string
	for _, s := range specs {
		for _, d := range endToEnd {
			if !timings {
				break
			}
			x, y := a.e2e[s.name].Metrics[d.Name].Value, b.e2e[s.name].Metrics[d.Name].Value
			if rel := math.Abs(x-y) / math.Max(math.Abs(x), math.SmallestNonzeroFloat64); rel > d.Bound {
				out = append(out, fmt.Sprintf("%s %s: %g vs %g differ by %.1f%%, bound %.0f%%", s.name, d.Name, x, y, rel*100, d.Bound*100))
			}
		}
		if fa, fb := a.e2e[s.name].Failed, b.e2e[s.name].Failed; fa != fb {
			out = append(out, fmt.Sprintf("%s failed ops: %d vs %d", s.name, fa, fb))
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			x, y := a.layer[s.name].Metrics[d.Name].Value, b.layer[s.name].Metrics[d.Name].Value
			if x != y {
				out = append(out, fmt.Sprintf("%s %s: exact count %g vs %g", s.name, d.Name, x, y))
			}
		}
	}
	return out
}
