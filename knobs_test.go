package kadop

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"kadop/internal/blockcache"
	"kadop/internal/dht"
	"kadop/internal/dpp"
	ikadop "kadop/internal/kadop"
	"kadop/internal/replicate"
	"kadop/internal/store"
	"kadop/internal/xmltree"
)

// knobStructs are the option structs whose exported fields are knobs,
// under the names DESIGN.md §18 gives them.
var knobStructs = []struct {
	name string
	typ  reflect.Type
}{
	{"kadop.Config", reflect.TypeOf(ikadop.Config{})},
	{"kadop.BatchingConfig", reflect.TypeOf(ikadop.BatchingConfig{})},
	{"kadop.QueryOptions", reflect.TypeOf(ikadop.QueryOptions{})},
	{"kadop.SLOOptions", reflect.TypeOf(SLOOptions{})},
	{"dht.Config", reflect.TypeOf(dht.Config{})},
	{"dht.RetryPolicy", reflect.TypeOf(dht.RetryPolicy{})},
	{"dpp.Options", reflect.TypeOf(dpp.Options{})},
	{"dpp.FetchOptions", reflect.TypeOf(dpp.FetchOptions{})},
	{"replicate.Config", reflect.TypeOf(replicate.Config{})},
	{"blockcache.Options", reflect.TypeOf(blockcache.Options{})},
	{"store.Options", reflect.TypeOf(store.Options{})},
	{"store.CoalesceOptions", reflect.TypeOf(store.CoalesceOptions{})},
	{"xmltree.ExtractOptions", reflect.TypeOf(xmltree.ExtractOptions{})},
}

// flagDefiners are the flag package functions that define a flag, with
// the position of the flag's name among their arguments.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1,
	"StringVar": 1, "TextVar": 1, "Uint64Var": 1, "UintVar": 1, "Var": 1,
}

// cmdFlags parses cmd/*/main.go and returns each binary's flag names.
func cmdFlags(t *testing.T) map[string][]string {
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	out := map[string][]string{}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			i, ok := flagDefiners[sel.Sel.Name]
			if !ok {
				return true
			}
			lit, ok := call.Args[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag.%s with a non-literal name", path, sel.Sel.Name)
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			out[bin] = append(out[bin], name)
			return true
		})
	}
	return out
}

// knobRows reads the first cell of every row of DESIGN.md §18's table.
func knobRows(t *testing.T) []string {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 18. Knobs")
	if start < 0 {
		t.Fatal("DESIGN.md has no section \"## 18. Knobs\"")
	}
	sec := doc[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	var rows []string
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
	for _, m := range row.FindAllStringSubmatch(sec, -1) {
		rows = append(rows, m[1])
	}
	return rows
}

// TestEveryKnobHasRow holds DESIGN.md §18 to the code: every flag of
// every binary and every exported field of the option structs has a
// row, and every row names a flag or field that exists. It logs the
// knob counts `make knobs` prints.
func TestEveryKnobHasRow(t *testing.T) {
	knobs := map[string]bool{}
	total := 0
	flags := cmdFlags(t)
	bins := make([]string, 0, len(flags))
	for bin := range flags {
		bins = append(bins, bin)
	}
	sort.Strings(bins)
	for _, bin := range bins {
		for _, name := range flags[bin] {
			knobs[bin+" -"+name] = true
		}
		total += len(flags[bin])
		t.Logf("knobs: %-24s %3d flags", bin, len(flags[bin]))
	}
	for _, s := range knobStructs {
		n := 0
		for i := 0; i < s.typ.NumField(); i++ {
			if f := s.typ.Field(i); f.IsExported() {
				knobs[s.name+"."+f.Name] = true
				n++
			}
		}
		total += n
		t.Logf("knobs: %-24s %3d fields", s.name, n)
	}
	t.Logf("knobs: %-24s %3d", "total", total)

	rows := map[string]bool{}
	for _, r := range knobRows(t) {
		if rows[r] {
			t.Errorf("DESIGN.md §18: %q has two rows", r)
		}
		rows[r] = true
		if !knobs[r] {
			t.Errorf("DESIGN.md §18: row %q names no flag or field", r)
		}
	}
	for k := range knobs {
		if !rows[k] {
			t.Errorf("DESIGN.md §18: %q has no row", k)
		}
	}
}
