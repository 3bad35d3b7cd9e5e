package wire_test

// The module keeps no API that only its own tests call and no command-line
// flag that nobody sets. Both rules are checked here over the type-checked
// non-test code of the whole module and of the benchmark module in bench/,
// with the standard library's go/types and its source importer.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// oracles are exported identifiers that only tests call, each kept on
// purpose: a reference implementation a test holds the fast path to, a
// package that exists to support tests, or library surface that the program
// does not call yet but whose tests still pin its behaviour. A key is a
// package path relative to the module, optionally followed by ".Name" or
// ".Type.Method".
var oracles = map[string]string{
	"internal/leakcheck":   "goroutine-leak check that test mains call",
	"internal/wal/waltest": "fault-injecting journal files for the wal, service and exec tests",

	"internal/lookahead.Project":           "from-scratch projection that TestProjectorMatchesFromScratch holds the incremental Projector to",
	"internal/exec.ReplayAssignments":      "assignment state rebuilt from a journal, the oracle for Dispatcher.Assignments",
	"internal/exec.Dispatcher.Assignments": "live assignment state that tests compare with the journal's",
	"internal/exec.AssignmentState.Equal":  "equality of the two assignment states above",
	"internal/cloud.Instance.ChargeOrigin": "billing origin that exec's replay-parity fingerprint compares, live against recovered",
	"internal/sched.Queue.Snapshot":        "queue contents in pop order, which exec's replay-parity fingerprint and FuzzQueueOrder compare",
	"internal/monitor.Snapshot.Clone":      "the copy a controller must take to keep a simulator snapshot past Plan; the recording test controllers take it",
	"internal/service.Server.Tenants":      "a shard's in-process tenant registry, which the cluster and scenario certificates read admissions from",
	"internal/wal.Log.Wrap":                "fault-injection seam the wal, exec and service journal tests wrap files with (see waltest)",

	"internal/dag.Workflow.CriticalPathExec": "makespan lower bound that the integration invariants hold every simulated run to",
	"internal/dag.Workflow.WidthProfile":     "per-level parallelism that the workload shape tests assert on",
	"internal/dist.Uniform":                  "task-time distribution for library users, tested against its analytic mean",
	"internal/dist.Normal":                   "truncated task-time distribution for library users, tested against its analytic mean",
	"internal/dist.Pareto":                   "heavy-tailed straggler distribution for library users, tested against its analytic mean",
	"internal/dist.Zipf":                     "skewed discrete task-time distribution of §II-A, tested against its analytic mean",
	"internal/dist.Empirical":                "replays recorded task times through the Dist interface",
	"internal/dist.Scaled":                   "calibrates a distribution's mean by a factor",
	"internal/dist.SampleSorted":             "sorted draws for quantile assertions on any Dist",
	"internal/metrics.CollectErrors":         "pairs pre-start predictions with observed times into the error samples Summarize reads",
	"internal/metrics.RelativeTimes":         "Figure 6's relative execution time over cost summaries",
	"internal/monitor.Snapshot.StageRecords": "a stage's task records in stage order",
	"internal/predict.Predictor.Updates":     "number of snapshots a predictor has consumed",
	"internal/report.Table.WriteCSV":         "CSV form of a report table",
	"internal/stats.Histogram":               "equal-width binning of a sample",
	"internal/trace.Recorder.WriteCSV":       "raw event stream as CSV, tenant-labelled",
	"internal/workloads.Extras":              "Pegasus gallery families beyond Table I that the integration test runs under WIRE",
	"internal/workloads.Spec.TotalTasks":     "declared task count that generation is checked against",
	"internal/workloads.LinearStages":        "the multi-stage linear workflow of §III-E",
}

// reflected lists the interfaces the standard library reaches through
// reflection or a type assertion, so a method that satisfies one of them is
// called even when no code names it.
const reflected = `package reflected

import (
	"encoding"
	"encoding/json"
	"fmt"
	"sort"
)

type (
	jsonMarshaler interface{ json.Marshaler }
	jsonUnmarshaler interface{ json.Unmarshaler }
	textMarshaler interface{ encoding.TextMarshaler }
	textUnmarshaler interface{ encoding.TextUnmarshaler }
	stringer interface{ fmt.Stringer }
	goStringer interface{ fmt.GoStringer }
	formatter interface{ fmt.Formatter }
	errorer interface{ error }
	unwrapper interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser interface{ Is(error) bool }
	aser interface{ As(any) bool }
	sorter interface{ sort.Interface }
)
`

func TestEveryExportedIdentifierHasACaller(t *testing.T) {
	prog := repoProgram(t)
	for _, msg := range uncalled(prog, oracles) {
		t.Error(msg)
	}
}

func TestEveryFlagHasACaller(t *testing.T) {
	prog := repoProgram(t)
	var docs []byte
	for _, name := range []string{"README.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile("../" + name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b...)
	}
	for _, msg := range unsetFlags(prog, string(docs)) {
		t.Error(msg)
	}
}

// TestCallerChecks runs both checks over a small module held in memory.
func TestCallerChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	const lib = `package lib

import "errors"

func Used() int { return 1 }

// Unused is called by nothing.
func Unused() int { return Unused() }

type Doc struct{ n int }

func (Doc) MarshalJSON() ([]byte, error) { return []byte("1"), nil }

// Orphan is referenced only by its own methods.
type Orphan struct{}

func (o Orphan) Self() Orphan { return o }

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped" }
func (w wrapped) Unwrap() error { return w.err }

func Wrap(err error) error { return wrapped{err} }

var ErrKept = errors.New("kept")

func Oracle() int { return 2 }

type Shape interface{ Area() int }

type Square struct{}

func (Square) Area() int   { return 4 }
func (Square) Corners() int { return 4 }

func Sum(s Shape) int { return s.Area() }
`
	const tool = `package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"fix/internal/lib"
)

func main() {
	fs := flag.NewFlagSet("tool", flag.ExitOnError)
	fs.String("named", "", "named in the README")
	fs.Bool("in-ci", false, "set by a CI step")
	fs.Int("by-go", 0, "set by Go code that starts the binary")
	fs.Duration("nobody", 0, "set by nobody")
	b, _ := json.Marshal(lib.Doc{})
	fmt.Println(b, lib.Used(), lib.Wrap(lib.ErrKept), lib.Sum(lib.Square{}))
}
`
	const runner = `package main

import "os/exec"

func main() { _ = exec.Command("tool", "-by-go=3").Run() }
`
	fsys := fstest.MapFS{
		"internal/lib/lib.go":        {Data: []byte(lib)},
		"internal/lib/lib_test.go":   {Data: []byte("package lib\n\nvar _ = Unused() + Oracle()\n")},
		"cmd/tool/main.go":           {Data: []byte(tool)},
		"examples/runner/main.go":    {Data: []byte(runner)},
		"internal/lib/testdata/x.go": {Data: []byte("not go")},
	}
	prog, err := loadProgram(fsys, "fix")
	if err != nil {
		t.Fatal(err)
	}
	ids := uncalled(prog, map[string]string{"internal/lib.Oracle": "test oracle"})
	flags := unsetFlags(prog, "run `tool -named x`\n  run: tool -in-ci\n")
	stale := uncalled(prog, map[string]string{"internal/lib.Used": "has a caller", "internal/lib.Gone": "deleted"})
	for _, tc := range []struct {
		name   string
		got    []string
		want   string
		report bool
	}{
		{"unused exported func", ids, "lib.Unused has no non-test caller", true},
		{"type kept alive only by its own methods", ids, "lib.Orphan has no non-test caller", true},
		{"method of that type", ids, "lib.Orphan.Self has no non-test caller", true},
		{"method no caller or used interface reaches", ids, "lib.Square.Corners has no non-test caller", true},
		{"method called through a used interface", ids, "lib.Square.Area", false},
		{"MarshalJSON reached through encoding/json", ids, "lib.Doc.MarshalJSON", false},
		{"Unwrap reached through errors", ids, "Unwrap", false},
		{"Error reached through the error interface", ids, "Error", false},
		{"allowlisted oracle", ids, "lib.Oracle", false},
		{"called func", ids, "lib.Used ", false},
		{"allowlist entry with a caller", stale, "internal/lib.Used is allowlisted but has a non-test caller", true},
		{"allowlist entry for a deleted identifier", stale, "internal/lib.Gone is allowlisted but not declared", true},
		{"flag named nowhere", flags, "cmd/tool: flag -nobody is set by no README command, CI step or Go caller", true},
		{"flag named in the README", flags, "-named", false},
		{"flag set by CI", flags, "-in-ci", false},
		{"flag set by Go code starting the binary", flags, "-by-go", false},
	} {
		found := false
		for _, msg := range tc.got {
			found = found || strings.Contains(msg, tc.want)
		}
		if found != tc.report {
			t.Errorf("%s: reported %v, want %v; reports:\n%s", tc.name, found, tc.report, strings.Join(tc.got, "\n"))
		}
	}
	if len(ids) != 4 || len(flags) != 1 {
		t.Errorf("got %d identifier and %d flag reports, want 4 and 1:\n%s", len(ids), len(flags), strings.Join(append(ids, flags...), "\n"))
	}
}

var (
	repoOnce sync.Once
	repoProg *program
	repoErr  error
)

// repoProgram loads the module this package lives in, plus bench/, once
// per test binary.
func repoProgram(t *testing.T) *program {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	repoOnce.Do(func() { repoProg, repoErr = loadProgram(os.DirFS(".."), "repro") })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoProg
}

// program is the type-checked non-test code of a module tree.
type program struct {
	fset  *token.FileSet
	pkgs  map[string]*pkg // by import path
	order []*pkg          // by import path
}

type pkg struct {
	path, dir string // dir is slash-separated, relative to the module root
	files     []*ast.File
	types     *types.Package
	info      *types.Info
	checking  bool
}

var (
	stdOnce sync.Once
	stdImp  types.ImporterFrom
)

// loadProgram parses every package under the root of fsys — skipping
// testdata and directories whose names start with "." or "_" — and
// type-checks the non-test files that the build constraints select. Nested
// modules (bench/) are loaded under the root module's path, as their go.mod
// files name them.
func loadProgram(fsys fs.FS, module string) (*program, error) {
	stdOnce.Do(func() { stdImp = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom) })
	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.IsDir = func(p string) bool {
		st, err := fs.Stat(fsys, p)
		return err == nil && st.IsDir()
	}
	ctxt.ReadDir = func(p string) ([]os.FileInfo, error) {
		ents, err := fs.ReadDir(fsys, p)
		var infos []os.FileInfo
		for _, e := range ents {
			if info, err := e.Info(); err == nil {
				infos = append(infos, info)
			}
		}
		return infos, err
	}
	ctxt.OpenFile = func(p string) (io.ReadCloser, error) { return fsys.Open(p) }

	prog := &program{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	err := fs.WalkDir(fsys, ".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return fs.SkipDir
		}
		bp, err := ctxt.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		p := &pkg{path: path.Join(module, dir), dir: dir}
		for _, name := range bp.GoFiles {
			src, err := fs.ReadFile(fsys, path.Join(dir, name))
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(prog.fset, path.Join(dir, name), src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			prog.pkgs[p.path] = p
			prog.order = append(prog.order, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(prog.order, func(i, j int) bool { return prog.order[i].path < prog.order[j].path })
	for _, p := range prog.order {
		if _, err := prog.check(p.path); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// check type-checks the package at path, and first the module packages it
// imports; every other import comes from the standard library's source.
func (prog *program) check(path string) (*types.Package, error) {
	p := prog.pkgs[path]
	if p == nil {
		return stdImp.ImportFrom(path, ".", 0)
	}
	if p.types != nil {
		return p.types, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	p.checking = true
	p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) { return prog.check(path) })}
	tp, err := conf.Check(path, prog.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decl is an exported identifier declared at package level in internal/, or
// an exported method of a type declared there.
type decl struct {
	dir  string // "internal/dag"
	name string // "Workflow.Validate"
	pos  token.Position
}

func (d decl) key() string { return d.dir + "." + d.name }

// recvType is the named type a method is declared on, nil for a function.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// uncalled reports every exported identifier in non-test internal/ code that
// no non-test code refers to, outside its own declaration and, for a type,
// outside its own methods. A method also counts as called when its type
// implements an interface, holding that method, that the program's code
// uses or that the standard library reaches by itself (reflected). Entries
// of allow are kept; an entry that has a caller or names nothing is
// reported.
func uncalled(prog *program, allow map[string]string) []string {
	decls := map[types.Object]decl{}
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range prog.order {
		internal := strings.HasPrefix(p.dir, "internal/")
		for _, f := range p.files {
			for _, d := range f.Decls {
				// self holds what a use inside d does not keep alive: d's own
				// objects, and for a method its receiver's type.
				self := map[types.Object]bool{}
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name].(*types.Func)
					self[obj] = true
					name := d.Name.Name
					if recv := recvType(obj); recv != nil {
						self[recv.Obj()] = true
						name = recv.Obj().Name() + "." + name
					}
					if internal && d.Name.IsExported() {
						decls[obj] = decl{p.dir, name, prog.fset.Position(d.Name.Pos())}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if obj := p.info.Defs[id]; obj != nil {
								self[obj] = true
								if internal && id.IsExported() {
									decls[obj] = decl{p.dir, id.Name, prog.fset.Position(id.Pos())}
								}
							}
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(p.info.Uses[id]); obj != nil && !self[obj] {
							used[obj] = true
						}
					}
					return true
				})
			}
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "reflected.go", reflected, 0)
	if err != nil {
		panic(err)
	}
	refl, err := (&types.Config{Importer: stdImp}).Check("reflected", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	for _, name := range refl.Scope().Names() {
		addIface(refl.Scope().Lookup(name).Type())
	}
	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	satisfies := func(fn *types.Func) bool {
		recv := recvType(fn)
		if recv == nil || recv.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range byMethod[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var msgs []string
	declared := map[string]bool{}
	for obj, d := range decls {
		fn, isFunc := obj.(*types.Func)
		called := used[obj] || isFunc && satisfies(fn)
		declared[d.key()], declared[d.dir] = true, true
		switch {
		case allow[d.key()] != "" && called:
			msgs = append(msgs, fmt.Sprintf("%s is allowlisted but has a non-test caller", d.key()))
		case !called && allow[d.key()] == "" && allow[d.dir] == "":
			msgs = append(msgs, fmt.Sprintf("%s: %s.%s has no non-test caller", d.pos, path.Base(d.dir), d.name))
		}
	}
	for key := range allow {
		if !declared[key] {
			msgs = append(msgs, fmt.Sprintf("%s is allowlisted but not declared", key))
		}
	}
	sort.Strings(msgs)
	return msgs
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unsetFlags reports every flag a cmd/ binary defines that no caller sets.
// A flag is found statically, as a call to a flag package function or
// FlagSet method that takes a name and a usage, with a constant name. Its
// callers are docs (README and CI text, where -name must stand as a word) and
// string literals "-name" or "-name=…" in non-test Go code outside the
// binary, such as a program that starts it.
func unsetFlags(prog *program, docs string) []string {
	literals := map[string]map[string]bool{} // flag argument → dirs using it
	for _, p := range prog.order {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s := constant.StringVal(constant.MakeFromLiteral(lit.Value, lit.Kind, 0)); strings.HasPrefix(s, "-") {
						s, _, _ = strings.Cut(strings.TrimPrefix(s, "-"), "=")
						if literals[s] == nil {
							literals[s] = map[string]bool{}
						}
						literals[s][p.dir] = true
					}
				}
				return true
			})
		}
	}
	var msgs []string
	for _, p := range prog.order {
		if !strings.HasPrefix(p.dir, "cmd/") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				params, nameAt := fn.Type().(*types.Signature).Params(), -1
				for i := 0; i < params.Len(); i++ {
					if params.At(i).Name() == "name" {
						nameAt = i
					}
				}
				if nameAt < 0 || params.At(params.Len()-1).Name() != "usage" {
					return true
				}
				pos := prog.fset.Position(call.Pos())
				val := p.info.Types[call.Args[nameAt]].Value
				if val == nil || val.Kind() != constant.String {
					msgs = append(msgs, fmt.Sprintf("%s: %s: flag name is not a constant", pos, p.dir))
					return true
				}
				name := constant.StringVal(val)
				named := regexp.MustCompile(`(^|[^\w-])--?` + regexp.QuoteMeta(name) + `($|[^\w-])`)
				setByGo := false
				for dir := range literals[name] {
					setByGo = setByGo || dir != p.dir
				}
				if !setByGo && !named.MatchString(docs) {
					msgs = append(msgs, fmt.Sprintf("%s: %s: flag -%s is set by no README command, CI step or Go caller", pos, p.dir, name))
				}
				return true
			})
		}
	}
	sort.Strings(msgs)
	return msgs
}
