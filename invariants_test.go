package pghive_test

// The source-level rules that neither a type nor a recorded history can
// carry. Each is a plain function over parsed files, run over the tree
// (no finding allowed) and over seeded sources (exactly the named
// finding, or silence), so a rule that stops seeing anything fails. The
// lock discipline itself is not here: a helper that needs a lock takes
// that lock's witness (writeHeld, compactHeld, logHeld, memHeld), so a
// call without the lock — or under the other lock — does not build.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
)

var fset = token.NewFileSet()

// fromSource serves every type-check: it loads each dependency once
// (signatures only) and needs nothing but GOROOT and this tree.
var fromSource = importer.ForCompiler(fset, "source", nil)

// file is one parsed non-test source file; path is slash-separated and
// relative to the module root. pkg is every file of its directory.
type file struct {
	path     string
	ast      *ast.File
	pkg      *pkg
	findings []string
}

type pkg struct {
	files []*ast.File
	info  *types.Info
}

func (f *file) add(pos token.Pos, finding string) {
	f.findings = append(f.findings, fset.Position(pos).String()+": "+finding)
}

// types type-checks f's package on first use.
func (f *file) types() *types.Info {
	if f.pkg.info == nil {
		f.pkg.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		if _, err := (&types.Config{Importer: fromSource}).Check(path.Dir(f.path), fset, f.pkg.files, f.pkg.info); err != nil {
			f.add(f.ast.Pos(), "type-check: "+err.Error())
		}
	}
	return f.pkg.info
}

// callee names what e selects — through a call to its function, through
// a pointer to its base: "x.Name" when x is a plain identifier (a
// package, usually), and "Name" alone.
func callee(e ast.Expr) (qualified, name string) {
	switch x := e.(type) {
	case *ast.CallExpr:
		e = x.Fun
	case *ast.StarExpr:
		e = x.X
	}
	s, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if x, ok := s.X.(*ast.Ident); ok {
		qualified = x.Name + "." + s.Sel.Name
	}
	return qualified, s.Sel.Name
}

// recvName returns "Receiver.name" for a method, "name" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// rules: each governs the files matching one of its scope patterns
// (path.Match; none means every file).
var rules = []struct {
	name  string
	scope []string
	find  func(*file)
}{
	{"NoOSOnDurablePaths", []string{"*.go", "internal/wal/*.go", "internal/runfile/*.go", "internal/core/*.go"}, noOSOnDurablePaths},
	{"ContextPropagates", nil, contextPropagates},
	{"DurableErrorsChecked", []string{"durable.go", "internal/wal/*.go"}, durableErrorsChecked},
	{"WitnessesComeFromLocks", nil, witnessesComeFromLocks},
	{"SortedMapOutput", []string{"internal/serialize/*.go", "internal/schema/*.go", "internal/core/checkpoint.go"}, sortedMapOutput},
}

func governs(scope []string, p string) bool {
	return scope == nil || slices.ContainsFunc(scope, func(pat string) bool { ok, _ := path.Match(pat, p); return ok })
}

// Everything the durability stack reads or writes goes through a vfs.FS,
// because the fault injectors prove crash safety only for IO they can
// see. So the packages on the durable path do not import os at all;
// internal/vfs is the one place it appears.
func noOSOnDurablePaths(f *file) {
	for _, imp := range f.ast.Imports {
		if imp.Path.Value == `"os"` {
			f.add(imp.Pos(), "imports os on a durable path: fault injection cannot see IO that bypasses vfs.FS")
		}
	}
}

// Deadlines propagate, they do not evaporate. A function or literal
// handed a context — a context.Context, or the *http.Request carrying
// the admission gate's deadline — never makes a fresh one, and an
// exported Service / DurableService method takes its ctx first, named,
// and uses it. The shims without a ctx parameter (Ingest calling
// IngestContext(context.Background(), …)) have none to discard.
func contextPropagates(f *file) {
	paramType := func(p *ast.Field) string { q, _ := callee(p.Type); return q }
	mentions := func(n ast.Node, name string) (found bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			found = found || (ok && id.Name == name)
			return !found
		})
		return found
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		var ft *ast.FuncType
		var body *ast.BlockStmt
		name := "a function literal"
		switch n := n.(type) {
		case *ast.FuncDecl:
			ft, body, name = n.Type, n.Body, n.Name.Name
		case *ast.FuncLit:
			ft, body = n.Type, n.Body
		}
		if body == nil || !slices.ContainsFunc(ft.Params.List, func(p *ast.Field) bool {
			return paramType(p) == "context.Context" || paramType(p) == "http.Request"
		}) {
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if q, _ := callee(call); q == "context.Background" || q == "context.TODO" {
					f.add(n.Pos(), q+" in "+name+" discards the caller's deadline; forward the context it already receives")
				}
			}
			return true
		})
		return false // its literals are covered
	})
	for _, decl := range f.ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
			continue
		}
		if recv, _, _ := strings.Cut(recvName(fd), "."); recv != "Service" && recv != "DurableService" {
			continue
		}
		for i, p := range fd.Type.Params.List {
			switch {
			case paramType(p) != "context.Context":
			case i != 0:
				f.add(fd.Pos(), fd.Name.Name+" takes a context.Context but not as its first parameter")
			case len(p.Names) == 0 || p.Names[0].Name == "_":
				f.add(fd.Pos(), fd.Name.Name+" accepts a context.Context it cannot forward (unnamed or blank)")
			case !mentions(fd.Body, p.Names[0].Name):
				f.add(fd.Pos(), fd.Name.Name+" accepts ctx but never uses it: the caller's deadline is silently ignored")
			}
		}
	}
}

// On a durable path the errors that matter most arrive late, at Close
// and Sync. Dropping either on the floor is a finding (`_ = x.Close()`
// acknowledges a best-effort close on an error path, `defer x.Close()`
// is cleanup after the sync already ran); a Sync error may not be
// discarded in any form; and nothing here renames a file — every
// rename is vfs.WriteFileAtomic's, which syncs first.
func durableErrorsChecked(f *file) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if _, m := callee(n.X); m == "Close" || m == "Sync" {
				f.add(n.Pos(), "discarded error from "+m+" on a durable path")
			}
		case *ast.DeferStmt:
			if _, m := callee(n.Call); m == "Sync" {
				f.add(n.Pos(), "deferred Sync discards its error on a durable path")
			}
		case *ast.AssignStmt:
			if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" && len(n.Rhs) == 1 {
				if _, m := callee(n.Rhs[0]); m == "Sync" {
					f.add(n.Pos(), "Sync's error may not be discarded, even explicitly: a failed fsync means the record is not durable")
				}
			}
		case *ast.CallExpr:
			if _, m := callee(n); m == "Rename" {
				f.add(n.Pos(), "Rename on a durable path: publish files through vfs.WriteFileAtomic, which syncs first")
			}
		}
		return true
	})
}

// witnesses names each lock-witness type, the file that declares its
// lock, and the acquire methods there that alone may construct it.
var witnesses = map[string]struct {
	file string
	mint []string
}{
	"writeHeld":   {"service.go", []string{"writeLock.Lock", "writeLock.LockContext"}},
	"compactHeld": {"durable.go", []string{"compactLock.Lock"}},
	"logHeld":     {"internal/wal/wal.go", []string{"Log.lock"}},
	"memHeld":     {"internal/vfs/mem.go", []string{"MemFS.lock"}},
}

// The compiler checks that a helper is handed its lock's witness; this
// checks that a witness can only have come from the lock. In its own
// package the zero value is one `writeHeld{}` or `var h writeHeld`
// away, so the type's name may appear in parameter lists, in its
// declaration and inside its acquire methods — nowhere else. And no
// function carries a Locked suffix: that name is a claim nothing
// checks. Known limit, as under the analyzer this replaces: a witness
// outlives its Unlock.
func witnessesComeFromLocks(f *file) {
	allowed := map[*ast.Ident]bool{}
	minted := map[string]bool{} // "witness method" for each acquire method seen
	allow := func(n ast.Node, in string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (in == "" || slices.Contains(witnesses[id.Name].mint, in)) {
				allowed[id], minted[id.Name+" "+in] = true, true
			}
			return true
		})
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			allowed[n.Name] = true
		case *ast.FuncType:
			allow(n.Params, "")
		case *ast.FuncDecl:
			if strings.HasSuffix(n.Name.Name, "Locked") {
				f.add(n.Pos(), n.Name.Name+" claims a lock by suffix; take the lock's witness as a parameter instead")
			}
			allow(n, recvName(n))
		}
		return true
	})
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && witnesses[id.Name].mint != nil && !allowed[id] {
			f.add(id.Pos(), id.Name+" named outside a parameter list and outside "+strings.Join(witnesses[id.Name].mint, "/")+": a witness is received from its lock, never declared, constructed, stored or returned")
		}
		return true
	})
	// The table is only as good as its names: the file it gives for a
	// witness declares every acquire method it lists.
	for witness, w := range witnesses {
		for _, fn := range w.mint {
			if f.path == w.file && !minted[witness+" "+fn] {
				f.add(f.ast.Pos(), "the witness table expects "+fn+" minting "+witness+" here")
			}
		}
	}
}

// Serialized bytes are bit-identical run to run, so where they are
// produced no map iteration order may reach output: a map range whose
// body emits — an fmt.Fprint*, a Write* method, an accumulating append
// — is a finding unless its function sorts (package sort, slices.Sort*;
// collect, sort, range the slice is the blessed idiom). The one rule
// that needs types: is it a map, a method, the builtin append.
func sortedMapOutput(f *file) {
	info := f.types()
	// op names what a call does to output order: "sort", the emitting
	// operation, or "".
	op := func(call *ast.CallExpr) string {
		q, name := callee(call)
		fun, _ := call.Fun.(*ast.SelectorExpr)
		id, _ := call.Fun.(*ast.Ident)
		_, builtin := info.Uses[id].(*types.Builtin)
		switch {
		case strings.HasPrefix(q, "sort.") || strings.HasPrefix(q, "slices.Sort"):
			return "sort"
		case strings.HasPrefix(q, "fmt.Fprint"):
			return q
		case info.Selections[fun] != nil && slices.Contains([]string{"Write", "WriteString", "WriteByte", "WriteRune", "WriteTo"}, name):
			return name
		case builtin && id.Name == "append":
			return "append"
		}
		return ""
	}
	ops := func(n ast.Node) (out []string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && op(call) != "" {
				out = append(out, op(call))
			}
			return true
		})
		return out
	}
	for _, decl := range f.ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || slices.Contains(ops(fd.Body), "sort") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok && info.Types[rng.X].Type != nil {
				_, isMap := info.Types[rng.X].Type.Underlying().(*types.Map)
				if emitted := ops(rng.Body); isMap && len(emitted) > 0 {
					f.add(rng.Pos(), "range over map reaches "+emitted[0]+" with no sort in "+fd.Name.Name+": map order is nondeterministic")
				}
			}
			return true
		})
	}
}

// rows seeds each rule: path and source in, the one finding out ("" for
// silence — a blessed idiom, or a file outside the rule's scope).
var rows = []struct{ rule, path, src, want string }{
	{"NoOSOnDurablePaths", "durable.go", `import "os"; func f(p string) ([]byte, error) { return os.ReadFile(p) }`, "imports os"},
	{"NoOSOnDurablePaths", "service.go", `import "os"; func f() (string, error) { return os.Hostname() }`, "imports os"},
	{"NoOSOnDurablePaths", "internal/wal/wal.go", `import "os"; type handle struct{ active *os.File }; func f(a, b string) error { f, err := os.Open(a); if err != nil { return err }; _ = f.Close(); return os.Rename(a, b) }`, "imports os"},
	{"NoOSOnDurablePaths", "internal/wal/wal.go", `import "os"; const create = os.O_WRONLY | os.O_CREATE | os.O_EXCL`, "imports os"},
	{"NoOSOnDurablePaths", "internal/runfile/runfile.go", `import "os"; func f(p string) error { _, err := os.ReadDir(p); return err }`, "imports os"},
	{"NoOSOnDurablePaths", "internal/core/checkpoint.go", `import "os"; func f(p string) error { f, err := os.CreateTemp(p, "*.tmp"); if err != nil { return err }; return f.Sync() }`, "imports os"},
	{"NoOSOnDurablePaths", "internal/core/core.go", `import "os"; func f(p string) ([]byte, error) { return os.ReadFile(p) }`, "imports os"},
	{"NoOSOnDurablePaths", "internal/vfs/vfs.go", `import "os"; func f(a, b string) error { return os.Rename(a, b) }`, ""},

	{"ContextPropagates", "service.go", `func (s *Service) BadRefresh(ctx context.Context) error { _ = ctx.Err(); return s.IngestContext(context.Background(), nil) }`, "context.Background in BadRefresh discards the caller's deadline"},
	{"ContextPropagates", "service.go", `func (s *Service) BadTODO(ctx context.Context) error { _ = ctx.Err(); return s.IngestContext(context.TODO(), nil) }`, "context.TODO in BadTODO discards the caller's deadline"},
	{"ContextPropagates", "durable.go", `func (d *DurableService) BadIgnored(ctx context.Context, key string) error { return nil }`, "BadIgnored accepts ctx but never uses it"},
	{"ContextPropagates", "durable.go", `func (d *DurableService) BadOrder(key string, ctx context.Context) error { return ctx.Err() }`, "BadOrder takes a context.Context but not as its first parameter"},
	{"ContextPropagates", "durable.go", `func (d *DurableService) BadBlank(_ context.Context, key string) error { return nil }`, "BadBlank accepts a context.Context it cannot forward"},
	{"ContextPropagates", "service.go", `func (s *Service) helper(ctx context.Context) error { return nil }; func (o *Other) Process(ctx context.Context) error { return nil }`, ""},
	{"ContextPropagates", "cmd/pghive/serve.go", `func BadHandler(w http.ResponseWriter, r *http.Request) { ctx := context.Background(); _ = ctx.Err() }`, "context.Background in BadHandler"},
	{"ContextPropagates", "follower.go", `func start() { serve(func(ctx context.Context) error { return work(context.Background()) }) }`, "context.Background in a function literal"},
	{"ContextPropagates", "follower.go", `func tail(ctx context.Context) { go func() { _ = work(context.TODO()) }() }`, "context.TODO in tail"},
	{"ContextPropagates", "follower.go", `func start() { go func() { _ = work(context.Background()) }() }`, ""},

	{"DurableErrorsChecked", "internal/wal/wal.go", `func BadClose(f *file) { f.Close() }`, "discarded error from Close"},
	{"DurableErrorsChecked", "internal/wal/wal.go", `func BadSyncStmt(f *file) { f.Sync() }`, "discarded error from Sync"},
	{"DurableErrorsChecked", "internal/wal/wal.go", `func BadSyncBlank(f *file) { _ = f.Sync() }`, "Sync's error may not be discarded, even explicitly"},
	{"DurableErrorsChecked", "internal/wal/wal.go", `func BadDeferSync(f *file) { defer f.Sync() }`, "deferred Sync discards its error"},
	{"DurableErrorsChecked", "internal/wal/wal.go", `func BadRename(fs fsys, tmp, final string) error { return fs.Rename(tmp, final) }`, "Rename on a durable path"},
	{"DurableErrorsChecked", "internal/wal/wal.go", `func Inlined(fs fsys, f *file, a, b string) error { if err := f.Sync(); err != nil { return err }; return fs.Rename(a, b) }`, "Rename on a durable path"},
	{"DurableErrorsChecked", "durable.go", `func BadSwap(old, next *log) error { old.Close(); return next.Sync() }`, "discarded error from Close"},
	{"DurableErrorsChecked", "service.go", `func Unflagged(l *log) { l.Close() }`, ""},

	{"WitnessesComeFromLocks", "service.go", `type writeHeld struct{}; func (l writeLock) Lock() writeHeld { return writeHeld{} }; func (l writeLock) LockContext() (writeHeld, error) { var h writeHeld; return h, nil }`, ""},
	{"WitnessesComeFromLocks", "service.go", `type writeHeld struct{}; func (l writeLock) Lock() writeHeld { return writeHeld{} }`, "the witness table expects writeLock.LockContext minting writeHeld here"},
	{"WitnessesComeFromLocks", "groupcommit.go", `func (d *DurableService) BadLiteral() error { return d.failFast(writeHeld{}) }`, "writeHeld named outside a parameter list"},
	{"WitnessesComeFromLocks", "groupcommit.go", `func (d *DurableService) BadVar() error { var h writeHeld; return d.failFast(h) }`, "writeHeld named outside a parameter list"},
	{"WitnessesComeFromLocks", "ship.go", `type keeper struct{ h compactHeld }`, "compactHeld named outside a parameter list"},
	{"WitnessesComeFromLocks", "ship.go", `func forge() (h compactHeld) { return }`, "compactHeld named outside a parameter list and outside compactLock.Lock"},
	{"WitnessesComeFromLocks", "durable.go", `func (l *compactLock) Lock() compactHeld { l.mu.Lock(); _ = writeHeld{}; return compactHeld{} }`, "writeHeld named outside a parameter list"},
	{"WitnessesComeFromLocks", "internal/wal/replay.go", `func (l *Log) Sealed() { l.rotate(logHeld{}) }`, "logHeld named outside a parameter list and outside Log.lock"},
	{"WitnessesComeFromLocks", "internal/vfs/inject.go", `func (m *MemFS) Truncate() { var h memHeld; _ = h }`, "memHeld named outside a parameter list and outside MemFS.lock"},
	{"WitnessesComeFromLocks", "pghive.go", `func (s *Service) applyLocked() {}`, "applyLocked claims a lock by suffix"},
	{"WitnessesComeFromLocks", "internal/other/other.go", `func helperLocked() {}`, "helperLocked claims a lock by suffix"},

	{"SortedMapOutput", "internal/serialize/s.go", `import ("fmt"; "io"); func BadRender(w io.Writer, m map[string]string) { for k, v := range m { fmt.Fprintf(w, "%s: %s\n", k, v) } }`, "range over map reaches fmt.Fprintf with no sort in BadRender"},
	{"SortedMapOutput", "internal/serialize/s.go", `import "strings"; func BadBuild(m map[string]int) string { var b strings.Builder; for k := range m { b.WriteString(k) }; return b.String() }`, "range over map reaches WriteString with no sort in BadBuild"},
	{"SortedMapOutput", "internal/schema/s.go", `func BadCollect(m map[string]int) (keys []string) { for k := range m { keys = append(keys, k) }; return keys }`, "range over map reaches append with no sort in BadCollect"},
	{"SortedMapOutput", "internal/core/checkpoint.go", `func Keys(m map[string]int) (out []string) { for k := range m { out = append(out, k) }; return out }`, "range over map reaches append with no sort in Keys"},
	{"SortedMapOutput", "internal/core/core.go", `func Keys(m map[string]int) (out []string) { for k := range m { out = append(out, k) }; return out }`, ""},
	{"SortedMapOutput", "internal/serialize/s.go", `import "io"; func GoodCount(w io.Writer, m map[string]int, s []string) (n int) { for _, v := range m { n += v }; for _, v := range s { io.WriteString(w, v) }; return n }`, ""},
}

func TestInvariants(t *testing.T) {
	// Every non-test Go file of the module, wanting silence. bench/ is a
	// module of its own and testdata holds no code of this one.
	var tree []*file
	pkgs := map[string]*pkg{}
	err := fs.WalkDir(os.DirFS("."), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && p != "." && (name == "bench" || name == "testdata" || name[0] == '.') {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		parsed, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if pkgs[path.Dir(p)] == nil {
			pkgs[path.Dir(p)] = &pkg{}
		}
		pkgs[path.Dir(p)].files = append(pkgs[path.Dir(p)].files, parsed)
		tree = append(tree, &file{path: p, ast: parsed, pkg: pkgs[path.Dir(p)]})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			governed := 0
			for _, f := range tree {
				if governs(r.scope, f.path) {
					governed++
					f.findings = nil
					r.find(f)
					for _, finding := range f.findings {
						t.Error(finding)
					}
				}
			}
			if governed == 0 {
				t.Error("the rule's scope matches no file of the tree")
			}
			for i, row := range rows {
				if row.rule != r.name {
					continue
				}
				parsed, err := parser.ParseFile(fset, row.path, "package p; "+row.src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatalf("row %d: %v", i, err)
				}
				f := &file{path: row.path, ast: parsed, pkg: &pkg{files: []*ast.File{parsed}}}
				if governs(r.scope, row.path) {
					r.find(f)
				}
				if got := strings.Join(f.findings, "\n"); len(f.findings) > 1 || (row.want == "") != (got == "") || !strings.Contains(got, row.want) {
					t.Errorf("row %d (%s): want one finding containing %q (none if empty), got:\n%s", i, row.path, row.want, got)
				}
			}
		})
	}
}
