// Command bench is the repository's benchmark: four named workloads
// driven against real in-process KadoP clusters on the simulated
// network, every answer checked against an oracle, every metric printed
// by name with its unit. BENCHMARK.json at the repository root is the
// contract; README.md in this directory explains each workload, how the
// layer metrics relate to the end-to-end ones, and how to run it.
//
//	go -C bench run . -workload query_cpu -seed 7 -seconds 15 -trace 0
//	go -C bench run . -seed 7          # the whole suite, untraced + traced
//	go -C bench run . -short -repeat 2   # smoke: twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sync"
	"syscall"
)

// gcPercent is the garbage collector's target the benchmark runs under
// unless GOGC is set. The deployments' live heap is a few tens of
// megabytes, so at the default of 100 collections start every few
// milliseconds and their pacing, not the program, decides a run's
// latencies: at 100, repeated runs of one seed spread ±5 % in query
// throughput; at 400, ±0.5 %. allocs_per_op counts allocations directly,
// whatever the collector does.
const gcPercent = 400

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single-workload run's standard
// output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render pairs the measured values with the catalogue's units; a metric
// the run did not produce is an error, so the output and BENCHMARK.json
// cannot drift apart.
func render(defs []metricDef, out *outcome) (resultLine, error) {
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return line, fmt.Errorf("metric %q was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range out.metrics {
		if _, ok := line.Metrics[name]; !ok {
			return line, fmt.Errorf("metric %q was measured but is not in the catalogue", name)
		}
	}
	return line, nil
}

// scratch is the run's temporary directory, removed on every exit path
// including SIGINT/SIGTERM.
type scratch struct {
	dir  string
	once sync.Once
}

func newScratch() (*scratch, error) {
	dir, err := os.MkdirTemp("", "kadop-bench-")
	if err != nil {
		return nil, err
	}
	s := &scratch{dir: dir}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		s.remove()
		os.Exit(130)
	}()
	return s, nil
}

func (s *scratch) remove() { s.once.Do(func() { os.RemoveAll(s.dir) }) }

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result line (the BENCHMARK.json contract); empty runs the suite")
		seed         = flag.Int64("seed", 1, "seed of the corpus, the query sequence and the peer roles")
		seconds      = flag.Float64("seconds", 15, "length of the measured window")
		traceFlag    = flag.Int("trace", 0, "0: end-to-end metrics, no tracer and no wrappers; 1: the serial traced pass and the per-layer metrics")
		outDir       = flag.String("out", "", "directory for result.json and, traced, spans-<workload>.jsonl (default: a kept temporary directory, traced runs only)")
		repeat       = flag.Int("repeat", 1, "suite mode: run the suite this many times and fail unless the repetitions agree")
		short        = flag.Bool("short", false, "suite mode: few-second smoke run (2 s windows)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	sc, err := newScratch()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer sc.remove()

	if *workloadName == "" {
		if *short {
			*seconds = 2
		}
		return runSuite(sc.dir, *seed, *seconds, *repeat, *outDir, *short)
	}
	s, err := specByName(*workloadName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	line, err := runOne(s, *seed, *seconds, *traceFlag == 1, sc.dir, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
		return 1
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload, traced or not, and renders its result.
func runOne(s *spec, seed int64, seconds float64, traced bool, work, outDir string) (resultLine, error) {
	var (
		out  *outcome
		defs = endToEnd
		err  error
	)
	if traced {
		defs = perLayer
		out, err = runTraced(s, seed, seconds, work, outDir)
	} else {
		out, err = runEndToEnd(s, seed, seconds, work)
	}
	if err != nil {
		return resultLine{}, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%g trace=%v: %s\n", s.name, seed, seconds, traced, out.note)
	line, err := render(defs, out)
	if err != nil {
		return line, err
	}
	if outDir != "" {
		if err := writeResult(outDir, s.name, traced, line); err != nil {
			return line, err
		}
	}
	return line, nil
}

func writeResult(outDir, workload string, traced bool, line resultLine) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	kind := "end_to_end"
	if traced {
		kind = "per_layer"
	}
	enc, err := json.MarshalIndent(line, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", workload, kind)), append(enc, '\n'), 0o644)
}
