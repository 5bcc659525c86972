// Command kadop-bench regenerates the paper's tables and figures and
// runs the repository's gates.
//
// -exp names one entry of the experiment table, "gates" for every
// gate, or "all" for the whole table. Scales default to laptop-sized
// runs; raise -records and -peers to approach the paper's Grid5000
// scales. A failing gate prints its report and exits non-zero.
//
//	kadop-bench -exp fig3 -records 1000,2000,4000 -peers 100
//	kadop-bench -exp gates -short
//	kadop-bench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kadop/internal/admin"
	"kadop/internal/experiments"
)

var (
	exp       = flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), "|"))
	records   = flag.String("records", "", "comma-separated corpus sizes in records (experiment-specific default)")
	peers     = flag.Int("peers", 0, "network size (experiment-specific default)")
	seed      = flag.Int64("seed", 1, "workload seed")
	short     = flag.Bool("short", false, "smallest scales (smoke run)")
	debugAddr = flag.String("debug-addr", "", "serve /debug/pprof on this address while experiments run")
)

func main() {
	flag.Parse()

	if *debugAddr != "" {
		// Profiling is the whole point of a bench-side debug endpoint, so
		// pprof is on here (unlike the long-lived peers, where it is
		// flag-gated).
		addr, stop, err := admin.Serve(*debugAddr, admin.Options{Pprof: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kadop-bench: debug endpoint %s: %v\n", *debugAddr, err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "kadop-bench: debug endpoint on http://%s\n", addr)
	}

	sizes, err := parseSizes(*records)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-bench:", err)
		os.Exit(2)
	}
	selected, ok := experiments.Select(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "kadop-bench: unknown experiment %q (want one of %s)\n",
			*exp, strings.Join(experiments.Names(), ", "))
		os.Exit(2)
	}
	for _, e := range selected {
		s := experiments.Scale{Records: sizes, Peers: *peers, Seed: *seed}
		if *short {
			s.Records, s.Peers = e.Short.Records, e.Short.Peers
		}
		out, err := e.Run(s)
		fmt.Print(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kadop-bench:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
