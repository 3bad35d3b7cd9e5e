package wire_test

// The module keeps no API that only its own tests call, no command-line flag
// that nobody sets, and no documented command line that passes a flag its
// binary lacks. The rules are checked here, and the import boundaries in
// boundary_test.go, over the type-checked non-test code of the whole module
// and of the benchmark module in bench/, with the standard library's go/types
// and its source importer.

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
	"reflect"
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
	"internal/scenario":    "session runner, fleet host and fault drivers that the certificates and cmd/wire-serve's process test call",
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
	"internal/trace.Recorder.WriteCSV":       "raw event stream as CSV",
	"internal/workloads.Extras":              "Pegasus gallery families beyond Table I that the integration test runs under WIRE",
	"internal/workloads.Spec.TotalTasks":     "declared task count that generation is checked against",
	"internal/workloads.LinearStages":        "the multi-stage linear workflow of §III-E",
}

// settable are exported struct fields that no non-test code sets outside
// their type's withDefaults, each kept on purpose with the tests that pin it.
// A key is a package path relative to the module followed by ".Type.Field".
var settable = map[string]string{
	"internal/sim.Config.InstanceSpeed":      "per-instance speed draws, §II-B's variability across instances of one type, for a testbed profile to set; TestInstanceSpeedHeterogeneity and TestInstanceSpeedDeterministic pin it",
	"internal/sim.Config.TransferCongestion": "transfer slowdown with pool size, §II-B's shared-network variability, for a testbed profile to set; TestTransferCongestion pins it",
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
	for _, msg := range uncalled(prog, oracles, readDocs(t, "README.md")[0]) {
		t.Error(msg)
	}
}

func TestEveryFieldHasASetter(t *testing.T) {
	for _, msg := range unsetFields(repoProgram(t), oracles, settable) {
		t.Error(msg)
	}
}

func TestEveryFlagHasACaller(t *testing.T) {
	prog := repoProgram(t)
	for _, msg := range unsetFlags(prog, readDocs(t, "README.md", ".github/workflows/ci.yml")) {
		t.Error(msg)
	}
	for _, msg := range undefinedFlags(prog, readDocs(t, "README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml")) {
		t.Error(msg)
	}
}

// readDocs reads files relative to the module root.
func readDocs(t *testing.T, names ...string) []string {
	t.Helper()
	var docs []string
	for _, name := range names {
		b, err := os.ReadFile("../" + name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(b))
	}
	return docs
}

// TestCallerChecks runs the checks over a small module held in memory.
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

func ViaReadme() int { return 3 }

func Hidden() int { return 5 }

// Knobs is a config: each exported field is set one way, or by nothing.
type Knobs struct {
	Keyed, Assigned, OpAssigned, Incremented, Addressed int
	FromOther, Defaulted, TestOnly, Unset, Allowed, Stale  int
	hidden                                                 int
}

func (k Knobs) withDefaults() Knobs {
	if k.Defaulted == 0 {
		k.Defaulted, k.hidden = 1, 1
	}
	return k
}

// Pair is set by a positional literal.
type Pair struct{ A, B int }

// withDefaults of another type is a setter of Knobs' fields.
func (p Pair) withDefaults(k *Knobs) { k.FromOther = p.A }

// Decoded carries json tags: the decoder sets Extra.
type Decoded struct {
	Name  string ` + "`json:\"name\"`" + `
	Extra int
}

// Fixture is an allowlisted type; nothing sets its field.
type Fixture struct{ Rows int }
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
	fs.Int("elsewhere", 0, "named only on another binary's line")
	fs.Int("continued", 0, "on a continuation line of a tool command")
	fs.Int("in-table", 0, "in a table under a heading that names the tool")
	fs.Int("go-other", 0, "passed by Go code that does not name the tool")
	b, _ := json.Marshal(lib.Doc{})
	fmt.Println(b, lib.Used(), lib.Wrap(lib.ErrKept), lib.Sum(lib.Square{}))
	k := lib.Knobs{Keyed: 1}
	k.Assigned = 2
	k.OpAssigned += 3
	k.Incremented++
	p := &k.Addressed
	k.Stale = *p
	var d lib.Decoded
	_ = json.Unmarshal(b, &d)
	fmt.Println(k, lib.Pair{1, 2}, d)
}
`
	const runner = `package main

import (
	"os/exec"

	"fix/wire"
)

func main() {
	_ = exec.Command("tool", "-by-go=3").Run()
	_ = wire.Kept()
}
`
	const other = `package main

import "os/exec"

func main() { _ = exec.Command("something", "-go-other").Run() }
`
	// The facade re-exports lib: Kept is called by an example, Named by the
	// README, and Doc only appears in Kept's signature. Dropped has no
	// caller, so it is reported and keeps lib.Hidden from counting as called.
	const facade = `package wire

import "fix/internal/lib"

type Doc = lib.Doc

type Spare = lib.Orphan

func Kept() Doc { return Doc{} }

func Named() int { return lib.ViaReadme() }

var (
	Dropped = lib.Hidden
	Grouped = lib.Used
)
`
	fsys := fstest.MapFS{
		"internal/lib/lib.go":         {Data: []byte(lib)},
		"internal/lib/lib_test.go":    {Data: []byte("package lib\n\nvar _ = Unused() + Oracle() + Knobs{TestOnly: 1}.TestOnly\n")},
		"internal/harness/harness.go": {Data: []byte("package harness\n\n// Spec is in a package the oracles name whole.\ntype Spec struct{ N int }\n")},
		"cmd/tool/main.go":            {Data: []byte(tool)},
		"examples/runner/main.go":     {Data: []byte(runner)},
		"examples/other/main.go":      {Data: []byte(other)},
		"wire/wire.go":                {Data: []byte(facade)},
		"internal/lib/testdata/x.go":  {Data: []byte("not go")},
	}
	prog, err := loadProgram(fsys, "fix")
	if err != nil {
		t.Fatal(err)
	}
	const readme = "Call `wire.Named` for the count.\n"
	fixOracles := map[string]string{"internal/lib.Oracle": "test oracle", "internal/lib.Fixture": "test fixture", "internal/harness": "test harness"}
	ids := uncalled(prog, fixOracles, readme)
	fields := unsetFields(prog, fixOracles, map[string]string{
		"internal/lib.Knobs.Allowed": "kept",
		"internal/lib.Knobs.Stale":   "has a setter",
		"internal/lib.Knobs.Gone":    "deleted",
	})
	docs := []string{
		"run `tool -named x`\nthen `other -elsewhere`\n\n" +
			"```\ntool -named y \\\n  -continued\n# tool, in a comment that is no heading\n-nobody\n```\n\n" +
			"## `tool` flags\n\n| `-in-table` |\n\n" +
			"A deleted flag: `tool -named -gone`.\n\n" +
			"```\ngo run ./cmd/tool -named -stale 1 2>&1 -redirected # -commented\n" +
			"echo x | tool -piped && tool -h\nlauncher -bin ./tool -launcher-flag\n```\n",
		"  run: tool -in-ci\n",
	}
	flags := unsetFlags(prog, docs)
	undefined := undefinedFlags(prog, docs)
	stale := uncalled(prog, map[string]string{"internal/lib.Used": "has a caller", "internal/lib.Gone": "deleted"}, readme)
	crossed := crossings(prog, []boundary{
		{from: []string{"cmd", "examples"}, to: []string{"internal/lib"}, why: "test rule"},
		{from: []string{"internal/lib", "cmd"}, to: []string{"errors"}, why: "std rule"},
	})
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
		{"facade export an example calls", ids, "wire.Kept ", false},
		{"facade export the README names", ids, "wire.Named ", false},
		{"facade alias a called signature needs", ids, "wire.Doc ", false},
		{"facade alias nothing needs", ids, "wire.Spare has no non-test caller", true},
		{"facade export nothing calls", ids, "wire.Dropped has no non-test caller", true},
		{"re-exported only by an uncalled facade export", ids, "lib.Hidden has no non-test caller", true},
		{"facade neighbour in a group", ids, "wire.Grouped has no non-test caller", true},
		{"flag named nowhere", flags, "cmd/tool: flag -nobody is set by no README command, CI step or Go caller", true},
		{"flag named in the README", flags, "-named", false},
		{"flag set by CI", flags, "-in-ci", false},
		{"flag set by Go code starting the binary", flags, "-by-go", false},
		{"flag named only on another binary's line", flags, "flag -elsewhere", true},
		{"flag on a continuation line", flags, "-continued", false},
		{"flag in a table under a heading naming the binary", flags, "-in-table", false},
		{"flag passed by Go code that does not name the binary", flags, "flag -go-other", true},
		{"direct import across a boundary", crossed, "cmd/tool reaches internal/lib (cmd/tool → internal/lib)", true},
		{"import across a boundary through another package", crossed, "examples/runner reaches internal/lib (examples/runner → wire → internal/lib)", true},
		{"package under from that imports nothing", crossed, "examples/other", false},
		{"direct standard library import", crossed, "internal/lib reaches errors (internal/lib → errors): std rule", true},
		{"standard library import through a module package", crossed, "cmd/tool reaches errors", false},
		{"undefined flag in inline code", undefined, "tool passes -gone", true},
		{"undefined flag after go run", undefined, "tool passes -stale", true},
		{"undefined flag after a pipe", undefined, "tool passes -piped", true},
		{"defined flag on a command line", undefined, "passes -named", false},
		{"help flag", undefined, "passes -h", false},
		{"word after a redirection", undefined, "passes -redirected", false},
		{"word in a shell comment", undefined, "passes -commented", false},
		{"flag of a program that takes the binary as an argument", undefined, "passes -launcher-flag", false},
		{"field set by a keyed literal", fields, "Knobs.Keyed ", false},
		{"field set by an assignment", fields, "Knobs.Assigned ", false},
		{"field set by an op-assignment", fields, "Knobs.OpAssigned ", false},
		{"field set by an increment", fields, "Knobs.Incremented ", false},
		{"field whose address is taken", fields, "Knobs.Addressed ", false},
		{"field set by another type's withDefaults", fields, "Knobs.FromOther ", false},
		{"fields set by a positional literal", fields, "lib.Pair", false},
		{"field only its own withDefaults sets", fields, "lib.Knobs.Defaulted is set by no non-test code outside withDefaults", true},
		{"field only a test sets", fields, "lib.Knobs.TestOnly is set by no non-test code outside withDefaults", true},
		{"field nothing sets", fields, "lib.Knobs.Unset is set by no non-test code outside withDefaults", true},
		{"unexported field", fields, "hidden", false},
		{"field of a json-tagged struct", fields, "Decoded.Extra", false},
		{"field of an allowlisted type", fields, "Fixture.Rows", false},
		{"field in a package the oracles name whole", fields, "Spec.N", false},
		{"allowlisted field", fields, "Knobs.Allowed ", false},
		{"allowlist entry for a field with a setter", fields, "internal/lib.Knobs.Stale is allowlisted but has a setter", true},
		{"allowlist entry for a deleted field", fields, "internal/lib.Knobs.Gone is allowlisted but not a checked field", true},
	} {
		found := false
		for _, msg := range tc.got {
			found = found || strings.Contains(msg, tc.want)
		}
		if found != tc.report {
			t.Errorf("%s: reported %v, want %v; reports:\n%s", tc.name, found, tc.report, strings.Join(tc.got, "\n"))
		}
	}
	if len(ids) != 8 || len(fields) != 5 || len(flags) != 3 || len(undefined) != 3 || len(crossed) != 3 {
		t.Errorf("got %d identifier, %d field, %d unset flag, %d undefined flag and %d boundary reports, want 8, 5, 3, 3 and 3:\n%s",
			len(ids), len(fields), len(flags), len(undefined), len(crossed), strings.Join(append(append(append(append(ids, fields...), flags...), undefined...), crossed...), "\n"))
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

// facade is the directory of the public API package, which re-exports
// internal identifiers under its own names.
const facade = "wire"

// decl is an exported identifier declared at package level in internal/ or
// in the facade, or an exported method of a type declared there.
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

// uncalled reports every exported identifier in non-test internal/ and facade
// code that no non-test code refers to, outside its own declaration and, for
// a type, outside its own methods. A method also counts as called when its
// type implements an interface, holding that method, that the program's code
// uses or that the standard library reaches by itself (reflected). The
// facade is a caller only for what it re-exports that is itself called: by
// code outside the facade, by readme as "wire.Name", or, for a type alias,
// by standing in the signature of a called facade identifier. Entries of
// allow are kept; an entry that has a caller or names nothing is reported.
func uncalled(prog *program, allow map[string]string, readme string) []string {
	decls := map[types.Object]decl{}
	used := map[types.Object]bool{}
	// facadeUses holds, for each facade object, what its own declaration
	// refers to; it counts only once the object is called.
	facadeUses := map[types.Object][]types.Object{}
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range prog.order {
		inFacade := p.dir == facade
		declared := strings.HasPrefix(p.dir, "internal/") || inFacade
		for _, f := range p.files {
			// Uses are attributed per declaration, and in the facade per
			// spec, so one re-export of a group keeps no neighbour alive.
			var units []ast.Node
			for _, d := range f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && inFacade {
					for _, spec := range g.Specs {
						units = append(units, spec)
					}
				} else {
					units = append(units, d)
				}
			}
			for _, unit := range units {
				// self holds what a use inside unit does not keep alive:
				// unit's own objects, and for a method its receiver's type.
				self := map[types.Object]bool{}
				var owners []types.Object
				var names []*ast.Ident
				switch u := unit.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[u.Name].(*types.Func)
					self[obj] = true
					owners = append(owners, obj)
					name := u.Name.Name
					if recv := recvType(obj); recv != nil {
						self[recv.Obj()] = true
						name = recv.Obj().Name() + "." + name
					}
					if declared && u.Name.IsExported() {
						decls[obj] = decl{p.dir, name, prog.fset.Position(u.Name.Pos())}
					}
				case *ast.GenDecl:
					for _, spec := range u.Specs {
						names = append(names, specNames(spec)...)
					}
				case ast.Spec:
					names = specNames(u)
				}
				for _, id := range names {
					if obj := p.info.Defs[id]; obj != nil {
						self[obj] = true
						owners = append(owners, obj)
						if declared && id.IsExported() {
							decls[obj] = decl{p.dir, id.Name, prog.fset.Position(id.Pos())}
						}
					}
				}
				if inFacade {
					for _, o := range owners {
						facadeUses[o] = nil
					}
				}
				ast.Inspect(unit, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(p.info.Uses[id]); obj != nil && !self[obj] {
							if !inFacade {
								used[obj] = true
								return true
							}
							for _, o := range owners {
								facadeUses[o] = append(facadeUses[o], obj)
							}
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
	markFacadeCalls(facadeUses, used, readme)
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

// specNames returns the identifiers a type or value spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// markFacadeCalls marks as used every facade object that is called, and what
// the declarations of those objects refer to. The roots are the facade
// objects that code outside the facade uses and the exported ones readme
// names as "wire.Name". A called function's or variable's signature, and a
// called interface type's method signatures, call the facade aliases of the
// types they mention, so a re-exported constructor keeps the alias of its
// result type.
func markFacadeCalls(facadeUses map[types.Object][]types.Object, used map[types.Object]bool, readme string) {
	aliases := map[types.Type][]types.Object{} // aliased type → facade aliases of it
	var queue []types.Object
	reach := func(obj types.Object) {
		_, inFacade := facadeUses[obj]
		if inFacade && !used[obj] {
			queue = append(queue, obj)
		}
		used[obj] = true
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b`+facade+`\.(\w+)`).FindAllStringSubmatch(readme, -1) {
		named[m[1]] = true
	}
	for obj := range facadeUses {
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
			target := types.Unalias(tn.Type())
			aliases[target] = append(aliases[target], obj)
		}
		if used[obj] || obj.Exported() && named[obj.Name()] {
			queue = append(queue, obj)
			used[obj] = true
		}
	}
	walked := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || walked[t] {
			return
		}
		walked[t] = true
		switch t := t.(type) {
		case *types.Alias:
			reach(t.Obj())
			walk(types.Unalias(t))
		case *types.Named:
			for _, a := range aliases[t] {
				reach(a)
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					walk(tuple.At(i).Type())
				}
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		for _, u := range facadeUses[obj] {
			reach(u)
		}
		switch obj.(type) {
		case *types.Func, *types.Var:
			walk(obj.Type())
		case *types.TypeName:
			if it, ok := obj.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					walk(it.Method(i).Type())
				}
			}
		}
	}
}

// unsetFields reports every exported field of a struct type declared at
// package level in non-test internal/ code that no non-test code sets, other
// than its own type's withDefaults method. A field is set by a keyed or
// positional composite literal, by an assignment or increment, or by taking
// its address (as flag.DurationVar(&c.X, …) does). Exempt are the fields of a
// struct that carries json tags, which the decoder sets, and of a package or
// type that oracles names. Entries of allow are kept; an entry that has a
// setter or names no field is reported.
func unsetFields(prog *program, oracles, allow map[string]string) []string {
	fields := map[*types.Var]decl{}
	owner := map[*types.Var]*types.TypeName{}
	for _, p := range prog.order {
		if !strings.HasPrefix(p.dir, "internal/") || oracles[p.dir] != "" {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || oracles[p.dir+"."+name] != "" {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || jsonTagged(st) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = decl{p.dir, name + "." + f.Name(), prog.fset.Position(f.Pos())}
					owner[f] = tn
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range prog.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				// A type's withDefaults fills in its own fields; that is
				// not a setter.
				var defaults *types.TypeName
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "withDefaults" {
					if recv := recvType(p.info.Defs[fd.Name].(*types.Func)); recv != nil {
						defaults = recv.Obj()
					}
				}
				mark := func(obj types.Object) {
					if v, ok := origin(obj).(*types.Var); ok && v.IsField() && (defaults == nil || owner[v] != defaults) {
						set[v] = true
					}
				}
				markSel := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						mark(p.info.Uses[sel.Sel])
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						t := p.info.Types[n].Type
						if ptr, ok := t.Underlying().(*types.Pointer); ok {
							t = ptr.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								mark(p.info.Uses[kv.Key.(*ast.Ident)])
							} else {
								mark(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markSel(lhs)
						}
					case *ast.IncDecStmt:
						markSel(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markSel(n.X)
						}
					}
					return true
				})
			}
		}
	}
	var msgs []string
	declared := map[string]bool{}
	for v, d := range fields {
		declared[d.key()] = true
		switch {
		case allow[d.key()] != "" && set[v]:
			msgs = append(msgs, fmt.Sprintf("%s is allowlisted but has a setter", d.key()))
		case !set[v] && allow[d.key()] == "":
			msgs = append(msgs, fmt.Sprintf("%s: %s.%s is set by no non-test code outside withDefaults", d.pos, path.Base(d.dir), d.name))
		}
	}
	for key := range allow {
		if !declared[key] {
			msgs = append(msgs, fmt.Sprintf("%s is allowlisted but not a checked field", key))
		}
	}
	sort.Strings(msgs)
	return msgs
}

// jsonTagged reports whether any field of st carries a json tag.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// flagDef is a flag that a cmd/ binary defines.
type flagDef struct {
	name string
	pos  token.Position
}

// definedFlags returns the flags the package of a cmd/ binary defines, found
// statically as calls to a flag package function or FlagSet method that
// takes a name and a usage. A name that is not a constant is reported.
func definedFlags(prog *program, p *pkg) (defs []flagDef, msgs []string) {
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
			defs = append(defs, flagDef{constant.StringVal(val), pos})
			return true
		})
	}
	return defs, msgs
}

// binaries returns the cmd/ packages by binary name.
func binaries(prog *program) map[string]*pkg {
	bins := map[string]*pkg{}
	for _, p := range prog.order {
		if strings.HasPrefix(p.dir, "cmd/") {
			bins[path.Base(p.dir)] = p
		}
	}
	return bins
}

// unsetFlags reports every flag a cmd/ binary defines that no caller of that
// binary sets. Its callers are the lines of docs (README and CI text) that
// name the binary, where -name must stand as a word, and the packages of
// non-test Go code outside the binary that name it in one string literal and
// hold "-name" or "-name=…" in another, as a program that starts it does.
func unsetFlags(prog *program, docs []string) []string {
	type literals struct {
		dir   string
		all   []string
		flags map[string]bool
	}
	var pkgLits []literals
	for _, p := range prog.order {
		lits := literals{dir: p.dir, flags: map[string]bool{}}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s := constant.StringVal(constant.MakeFromLiteral(lit.Value, lit.Kind, 0))
					lits.all = append(lits.all, s)
					if strings.HasPrefix(s, "-") {
						s, _, _ = strings.Cut(strings.TrimPrefix(s, "-"), "=")
						lits.flags[s] = true
					}
				}
				return true
			})
		}
		pkgLits = append(pkgLits, lits)
	}
	lines := docLines(docs)
	var msgs []string
	for name, p := range binaries(prog) {
		bin := regexp.MustCompile(`(^|[^\w-])` + regexp.QuoteMeta(name) + `($|[^\w-])`)
		var callers []string // doc lines that name the binary
		for _, l := range lines {
			if bin.MatchString(l.text) || bin.MatchString(l.heading) {
				callers = append(callers, l.text)
			}
		}
		goFlags := map[string]bool{} // flag arguments of Go code naming the binary
		for _, lits := range pkgLits {
			if lits.dir == p.dir {
				continue
			}
			for _, s := range lits.all {
				if bin.MatchString(s) {
					for name := range lits.flags {
						goFlags[name] = true
					}
					break
				}
			}
		}
		docText := strings.Join(callers, "\n")
		defs, bad := definedFlags(prog, p)
		msgs = append(msgs, bad...)
		for _, d := range defs {
			named := regexp.MustCompile(`(^|[^\w-])--?` + regexp.QuoteMeta(d.name) + `($|[^\w-])`)
			if !goFlags[d.name] && !named.MatchString(docText) {
				msgs = append(msgs, fmt.Sprintf("%s: %s: flag -%s is set by no README command, CI step or Go caller", d.pos, p.dir, d.name))
			}
		}
	}
	sort.Strings(msgs)
	return msgs
}

// undefinedFlags reports every flag that a command line in docs passes to a
// cmd/ binary that defines no flag of that name, so a deleted flag cannot
// live on in a document. A command line is a binary's name standing as the
// command — bare, as ./name or as "go run ./cmd/name" — at the start of a
// line (after an optional "run:"), of inline code, or of a shell segment. Its
// flags are the words after the name that start with "-", up to the end of
// the command: a backtick, a shell operator, a comment or a redirection.
func undefinedFlags(prog *program, docs []string) []string {
	bins := binaries(prog)
	defined := map[string]map[string]bool{}
	var names []string
	for name, p := range bins {
		defined[name] = map[string]bool{"h": true, "help": true}
		defs, _ := definedFlags(prog, p)
		for _, d := range defs {
			defined[name][d.name] = true
		}
		names = append(names, regexp.QuoteMeta(name))
	}
	sort.Strings(names)
	cmd := regexp.MustCompile(`(?:^\s*(?:-\s+)?(?:run:\s*)?|` + "`" + `|[|;&(]\s*)(?:go run \./cmd/|\./)?(` + strings.Join(names, "|") + `)(\s[^\n]*)?$`)
	flagWord := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	redirect := regexp.MustCompile(`^\d*[<>]`)
	var msgs []string
	for _, l := range docLines(docs) {
		text := l.text
		for {
			m := cmd.FindStringSubmatchIndex(text)
			if m == nil {
				break
			}
			bin, rest := text[m[2]:m[3]], ""
			if m[4] >= 0 {
				rest = text[m[4]:m[5]]
			}
			// The next command on the line starts where this one ends.
			text = rest
			if end := strings.IndexAny(rest, "`|;&()"); end >= 0 {
				rest = rest[:end]
			}
			for _, word := range strings.Fields(rest) {
				if strings.HasPrefix(word, "#") || redirect.MatchString(word) {
					break
				}
				if f := flagWord.FindStringSubmatch(word); f != nil && !defined[bin][f[1]] {
					msgs = append(msgs, fmt.Sprintf("%s passes -%s, which cmd/%s does not define: %s", bin, f[1], bin, strings.TrimSpace(l.text)))
				}
			}
		}
	}
	sort.Strings(msgs)
	return msgs
}

// docLine is one logical line of a document: physical lines ending in a
// backslash are joined to the next, and heading is the markdown heading of
// the section the line stands in.
type docLine struct{ text, heading string }

// docLines splits documents into logical lines. A line that starts with "#"
// inside a fenced code block is a shell comment, not a heading.
func docLines(docs []string) []docLine {
	var out []docLine
	for _, doc := range docs {
		heading, fenced, cont := "", false, ""
		for _, line := range strings.Split(doc, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if !fenced && strings.HasPrefix(line, "#") {
				heading = line
			}
			if strings.HasSuffix(line, "\\") {
				cont += strings.TrimSuffix(line, "\\") + " "
				continue
			}
			out = append(out, docLine{cont + line, heading})
			cont = ""
		}
	}
	return out
}
