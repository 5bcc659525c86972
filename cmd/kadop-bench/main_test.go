package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"kadop/internal/experiments"
)

// TestExperimentNamesConsistent needs no cluster: the -exp usage names
// every entry of the experiment table, every experiment the docs and CI
// name exists, and `make gate-smoke` runs every gate entry.
func TestExperimentNamesConsistent(t *testing.T) {
	usage := "|" + strings.TrimPrefix(flag.Lookup("exp").Usage, "experiment: ") + "|"
	for _, e := range experiments.Table {
		if !strings.Contains(usage, "|"+e.Name+"|") {
			t.Errorf("-exp usage %q does not name entry %q", usage, e.Name)
		}
	}

	named := regexp.MustCompile(`-exp ([a-z0-9]+)|GATES=([a-z0-9]+)`)
	for _, f := range []string{"Makefile", ".github/workflows/ci.yml", "README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile("../../" + f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(raw), -1) {
			if _, ok := experiments.Select(m[1] + m[2]); !ok {
				t.Errorf("%s names experiment %q, which is not in the table", f, m[1]+m[2])
			}
		}
	}

	raw, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	gates := regexp.MustCompile(`(?m)^GATES \S?= (.*)$`).FindStringSubmatch(string(raw))
	if gates == nil {
		t.Fatal("Makefile sets no GATES list")
	}
	run := map[string]bool{}
	for _, g := range strings.Fields(gates[1]) {
		sel, _ := experiments.Select(g)
		for _, e := range sel {
			run[e.Name] = true
		}
	}
	for _, e := range experiments.Table {
		if e.Paper == "gate" && !run[e.Name] {
			t.Errorf("gate %q is not run by make gate-smoke (GATES = %s)", e.Name, gates[1])
		}
	}
}
