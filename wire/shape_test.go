package wire_test

import (
	"fmt"
	"go/ast"
	"go/types"
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
	var journal, afterFunc types.Object
	if disp := p.types.Scope().Lookup("Dispatcher"); disp != nil {
		journal, _, _ = types.LookupFieldOrMethod(types.NewPointer(disp.Type()), false, p.types, "journalLocked")
	}
	var timer types.Type
	for _, imp := range p.types.Imports() {
		if imp.Path() == "time" {
			afterFunc = imp.Scope().Lookup("AfterFunc")
			timer = types.NewPointer(imp.Scope().Lookup("Timer").Type())
		}
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

// referrers returns, for each reference to obj in p, the function or method
// ("Type.method") whose declaration holds it, or "" at package level.
func referrers(p *pkg, obj types.Object) []string {
	var at []string
	if obj == nil {
		return at
	}
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
				if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] == obj {
					at = append(at, name)
				}
				return true
			})
		}
	}
	sort.Strings(at)
	return at
}
