package kadop

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	ikadop "kadop/internal/kadop"
)

// The call surface is context-first: an operation takes the caller's
// context as its first argument and has one name. The exceptions are
// the context-free names the frozen benchmark (bench/) compiles
// against; each survives as a one-line forward to its *Context form
// and is deleted, the *Context form taking the plain name, when bench/
// is re-based. pinnedForwards lists them; the two tests below keep the
// list from growing.
var pinnedForwards = map[string]string{
	"dht.Node.Bootstrap": "internal/dht",
	"dht.Node.Lookup":    "internal/dht",
	"dht.Node.Locate":    "internal/dht",
	"dpp.Manager.Fetch":  "internal/dpp",
	"kadop.Peer.Query":   "internal/kadop",
}

// TestContextFirstSurface fails if any exported method of the three
// serving-path types is named *Context, except the Context halves of
// the pinned pairs, and checks that each pinned context-free half is
// still a one-line forward.
func TestContextFirstSurface(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&dht.Node{}), reflect.TypeOf(&dpp.Manager{}), reflect.TypeOf(&ikadop.Peer{}),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			base, ok := strings.CutSuffix(typ.Method(i).Name, "Context")
			if !ok {
				continue
			}
			id := typ.Elem().String() + "." + base
			if _, twin := typ.MethodByName(base); !twin || pinnedForwards[id] == "" {
				t.Errorf("%sContext: a context-taking method carries the plain name (only the bench-pinned pairs keep a Context twin)", id)
			}
			seen[id] = true
		}
	}
	for id, dir := range pinnedForwards {
		if !seen[id] {
			t.Errorf("%s is listed as pinned but has no Context twin; drop it from pinnedForwards", id)
			continue
		}
		recv, name := id[strings.Index(id, ".")+1:strings.LastIndex(id, ".")], id[strings.LastIndex(id, ".")+1:]
		found := false
		for _, fn := range parseFuncs(t, dir) {
			if fn.Name.Name != name || fn.Recv == nil || !strings.HasSuffix(types.ExprString(fn.Recv.List[0].Type), recv) {
				continue
			}
			found = true
			forward := false
			if len(fn.Body.List) == 1 {
				if ret, ok := fn.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
					if call, ok := ret.Results[0].(*ast.CallExpr); ok && len(call.Args) > 0 {
						forward = strings.HasSuffix(types.ExprString(call.Fun), "."+name+"Context") &&
							types.ExprString(call.Args[0]) == "context.Background()"
					}
				}
			}
			if !forward {
				t.Errorf("%s must stay a one-line forward to %sContext(context.Background(), ...)", id, name)
			}
		}
		if !found {
			t.Errorf("%s not found in %s", id, dir)
		}
	}
}

// TestContextIsPassedOn enforces, over the non-test files of the three
// serving-path packages, the rule the context-first surface makes
// checkable: a function that receives a named context.Context never
// calls context.Background(), and a function that discards its context
// (names it _, as a procedure handler with nothing to pass it to may)
// calls nothing in these packages that would mint one — so no RPC runs
// detached from the deadline and trace of the request that caused it.
func TestContextIsPassedOn(t *testing.T) {
	funcs := map[string][]*ast.FuncDecl{}
	for _, dir := range []string{"internal/dht", "internal/dpp", "internal/kadop"} {
		funcs[dir] = parseFuncs(t, dir)
	}
	// mints: the functions of these packages that reach
	// context.Background() without having been handed a context, by
	// bare name, transitively.
	mints := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, fns := range funcs {
			for _, fn := range fns {
				if mints[fn.Name.Name] || ctxParam(fn.Type) != "" {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && (types.ExprString(call.Fun) == "context.Background" || mints[calleeName(call)]) {
						mints[fn.Name.Name], changed = true, true
					}
					return true
				})
			}
		}
	}
	var check func(owner string, typ *ast.FuncType, body *ast.BlockStmt, inherited string)
	check = func(owner string, typ *ast.FuncType, body *ast.BlockStmt, inherited string) {
		ctx := ctxParam(typ)
		if ctx == "" {
			ctx = inherited
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				check(owner, n.Type, n.Body, ctx)
				return false
			case *ast.CallExpr:
				switch {
				case ctx != "" && types.ExprString(n.Fun) == "context.Background":
					t.Errorf("%s: holds a context (%s) and calls context.Background()", owner, ctx)
				case ctx == "_" && mints[calleeName(n)]:
					t.Errorf("%s: discards its context and calls %s, which mints one", owner, calleeName(n))
				}
			}
			return true
		})
	}
	for dir, fns := range funcs {
		for _, fn := range fns {
			check(dir+"/"+fn.Name.Name, fn.Type, fn.Body, "")
		}
	}
}

// TestNoNetworkUnderLock enforces d7024e's "no network under locks" on
// the DPP manager, whose m.mu every root fetch at a home peer takes: no
// function of internal/dpp calls a *dht.Node method that sends a
// message, or a function of the package that does (transitively, by
// bare name), between m.mu.Lock() and its unlock. A deferred unlock
// holds the lock to the end of the function.
func TestNoNetworkUnderLock(t *testing.T) {
	fns := parseFuncs(t, "internal/dpp")
	sends := regexp.MustCompile(`^(Append|Delete|Get|Locate|CallProc)`)
	net := map[string]bool{}
	isSend := func(call *ast.CallExpr) bool {
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return net[fun.Name]
		case *ast.SelectorExpr:
			switch types.ExprString(fun.X) {
			case "m.node":
				return sends.MatchString(fun.Sel.Name)
			case "m":
				return net[fun.Sel.Name]
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && !net[fn.Name.Name] && isSend(call) {
					net[fn.Name.Name], changed = true, true
				}
				return true
			})
		}
	}
	for _, fn := range fns {
		locked := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				switch types.ExprString(n.Fun) {
				case "m.mu.Lock":
					locked = true
				case "m.mu.Unlock":
					locked = false
				default:
					if locked && isSend(n) {
						t.Errorf("internal/dpp/%s: calls %s while holding m.mu", fn.Name.Name, types.ExprString(n.Fun))
					}
				}
			}
			return true
		})
	}
}

// parseFuncs returns the function declarations (with bodies) of the
// non-test Go files of one package directory.
func parseFuncs(t *testing.T, dir string) []*ast.FuncDecl {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	sort.Strings(files)
	var out []*ast.FuncDecl
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}

// ctxParam returns the name of the function's context.Context
// parameter ("_" when discarded), or "" when it has none.
func ctxParam(typ *ast.FuncType) string {
	for _, f := range typ.Params.List {
		if types.ExprString(f.Type) != "context.Context" {
			continue
		}
		if len(f.Names) == 0 {
			return "_"
		}
		return f.Names[0].Name
	}
	return ""
}

// calleeName is the bare name a call invokes: f for f(...), m for x.m(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
