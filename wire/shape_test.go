package wire_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// TestExecSingleWriter holds the live dispatcher to one writer and one timer.
// Journaled state changes happen in apply, and only commitLocked appends
// (after applying): a second journalLocked call site, or a replay-side mirror
// of the dispatcher (replayRecord) coming back, is how live state and
// recovered state drifted apart before. Timed transitions are due instants on
// the run state, fired by wakeLocked behind Config.after: a second
// time.AfterFunc or a *time.Timer field brings back timers that outlive the
// run.
func TestExecSingleWriter(t *testing.T) {
	for _, msg := range singleWriter(repoProgram(t), "repro/internal/exec") {
		t.Error(msg)
	}
}

// singleWriter checks the rules of TestExecSingleWriter over the non-test
// code of the package at path.
func singleWriter(prog *program, path string) []string {
	p := prog.pkgs[path]
	var msgs []string
	journal := member(p.types.Scope().Lookup("Dispatcher"), p, "journalLocked")
	afterFunc := imported(p, "time", "AfterFunc")
	var timer types.Type
	if obj := imported(p, "time", "Timer"); obj != nil {
		timer = types.NewPointer(obj.Type())
	}
	if at := referrers(p, journal); journal == nil || len(at) != 1 || at[0] != "Dispatcher.commitLocked" {
		msgs = append(msgs, fmt.Sprintf("(*Dispatcher).journalLocked must have one caller, commitLocked; referred to from %v", at))
	}
	if at := referrers(p, afterFunc); len(at) != 1 {
		msgs = append(msgs, fmt.Sprintf("time.AfterFunc must appear once, behind Config.after; referred to from %v", at))
	}
	for id, obj := range p.info.Defs {
		if v, ok := obj.(*types.Var); ok && v.IsField() && timer != nil && types.Identical(v.Type(), timer) {
			msgs = append(msgs, fmt.Sprintf("%s: field %s is a *time.Timer: timed transitions are due instants fired by wakeLocked", prog.fset.Position(id.Pos()), id.Name))
		}
		if id.Name == "replayRecord" {
			msgs = append(msgs, fmt.Sprintf("%s: replayRecord is back: recovery must go through apply", prog.fset.Position(id.Pos())))
		}
	}
	sort.Strings(msgs)
	return msgs
}

// TestServiceOneRecordReader holds the session WAL to one record reader and
// hand-framed records. In non-test internal/service, encoding/json's
// Unmarshal and Marshal are referred to only from the functions that decode a
// request body, a client response, a handoff fence or a live run's controller
// spec, and from record.go's reader (readRecord, readVerbatim, readHead) and
// create framer. An ad-hoc json.Unmarshal of a WAL line, or a create record
// marshalled whole again, is a second reader or writer drifting from the
// format.
func TestServiceOneRecordReader(t *testing.T) {
	for _, msg := range oneRecordReader(repoProgram(t), "repro/internal/service") {
		t.Error(msg)
	}
}

func oneRecordReader(prog *program, path string) []string {
	p := prog.pkgs[path]
	return append(
		referredFrom(p, imported(p, "encoding/json", "Unmarshal"), "json.Unmarshal",
			"Client.attempt", "LiveControllerFactory", "Server.readJSON", "readFence",
			"readHead", "readRecord", "readVerbatim"),
		referredFrom(p, imported(p, "encoding/json", "Marshal"), "json.Marshal",
			"appendCreateRecord", "writeFence")...)
}

// shardAdminPath matches a shard admin endpoint's path: the router reaches
// those only through service.Client methods.
var shardAdminPath = regexp.MustCompile(`/v1/admin/(sessions|export|adopt|probe)|metrics\?raw`)

// TestClusterOneShardAPI holds the router to the one shard API that
// internal/service mounts and its Client speaks: non-test internal/cluster
// builds only two requests itself, proxy (client traffic, streamed through)
// and postAdmin (to a router, not a shard), and no string literal in it names
// a shard admin path.
func TestClusterOneShardAPI(t *testing.T) {
	for _, msg := range oneShardAPI(repoProgram(t), "repro/internal/cluster") {
		t.Error(msg)
	}
}

func oneShardAPI(prog *program, path string) []string {
	p := prog.pkgs[path]
	msgs := append(
		referredFrom(p, imported(p, "net/http", "NewRequestWithContext"), "http.NewRequestWithContext", "Router.proxy", "postAdmin"),
		referredFrom(p, imported(p, "net/http", "NewRequest"), "http.NewRequest")...)
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING &&
				shardAdminPath.MatchString(constant.StringVal(constant.MakeFromLiteral(lit.Value, lit.Kind, 0))) {
				msgs = append(msgs, fmt.Sprintf("%s: %s names a shard admin path: add a service.Client method instead", prog.fset.Position(lit.Pos()), lit.Value))
			}
			return true
		})
	}
	return msgs
}

// TestClusterOneRebalance holds every topology change to one operation,
// runOp: one op lock taken in runOp, one rebalance loop listing donors'
// sessions, one successor rule over the member order.
func TestClusterOneRebalance(t *testing.T) {
	for _, msg := range oneRebalance(repoProgram(t), "repro/internal/cluster") {
		t.Error(msg)
	}
}

func oneRebalance(prog *program, path string) []string {
	p := prog.pkgs[path]
	ms := p.types.Scope().Lookup("membership")
	order := member(ms, p, "order")
	successor := referrersOf(p, func(n ast.Node) bool {
		// A successor walk: i % len(ms.order).
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Op != token.REM {
			return false
		}
		call, ok := bin.Y.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		sel, isSel := call.Args[0].(*ast.SelectorExpr)
		return ok && isSel && p.info.Uses[fn] == types.Universe.Lookup("len") && order != nil && p.info.Uses[sel.Sel] == order
	})
	var msgs []string
	for _, rule := range []struct {
		what string
		at   []string
		want string
	}{
		{"(*service.Client).ListSessions", referrers(p, member(imported(p, "repro/internal/service", "Client"), p, "ListSessions")), "membership.rebalance"},
		{"(*sync.Mutex).TryLock", referrers(p, member(imported(p, "sync", "Mutex"), p, "TryLock")), "membership.runOp"},
		{"% len(ms.order)", successor, "membership.successorLocked"},
	} {
		if len(rule.at) != 1 || rule.at[0] != rule.want {
			msgs = append(msgs, fmt.Sprintf("%s must appear once, in %s; referred to from %v", rule.what, rule.want, rule.at))
		}
	}
	return msgs
}

// referredFrom reports unless the functions in p that refer to obj are
// exactly want, sorted ("Type.method" for a method), so that a new referrer
// fails and a stale entry of want is seen.
func referredFrom(p *pkg, obj types.Object, what string, want ...string) []string {
	if at := slices.Compact(referrers(p, obj)); !slices.Equal(at, want) {
		return []string{fmt.Sprintf("%s: %s must be referred to only from %v; referred to from %v", p.dir, what, want, at)}
	}
	return nil
}

// imported returns the package-level object name of the package that p
// imports from path, or nil if p does not import it.
func imported(p *pkg, path, name string) types.Object {
	for _, imp := range p.types.Imports() {
		if imp.Path() == path {
			return imp.Scope().Lookup(name)
		}
	}
	return nil
}

// member returns the field or method name of the type named by typ, as seen
// from p (pointer receivers included), or nil.
func member(typ types.Object, p *pkg, name string) types.Object {
	if typ == nil {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(typ.Type()), false, p.types, name)
	return obj
}

// referrers returns, for each reference to obj in p, the function or method
// ("Type.method") whose declaration holds it, or "" at package level.
func referrers(p *pkg, obj types.Object) []string {
	if obj == nil {
		return nil
	}
	return referrersOf(p, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && p.info.Uses[id] == obj
	})
}

// referrersOf returns, for each node in p that match accepts, the function or
// method ("Type.method") whose declaration holds it, or "" at package level.
func referrersOf(p *pkg, match func(ast.Node) bool) []string {
	var at []string
	for _, f := range p.files {
		for _, d := range f.Decls {
			name := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				name = fd.Name.Name
				if recv := recvType(p.info.Defs[fd.Name].(*types.Func)); recv != nil {
					name = recv.Obj().Name() + "." + name
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil && match(n) {
					at = append(at, name)
				}
				return true
			})
		}
	}
	sort.Strings(at)
	return at
}
