package wire_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// boundary is an import rule over the module's non-test code: no package
// under one of from reaches, directly or through other module packages, a
// package in to, or imports a standard library package that to names. Module
// paths are relative to the module root; a from entry covers the packages
// below it too.
type boundary struct {
	from, to []string
	why      string
}

// boundaries are the module's import rules, the ones `go list -deps` would
// show broken.
var boundaries = []boundary{
	{
		from: []string{"cmd"},
		to:   []string{"internal/chaos", "internal/scenario"},
		why:  "the binaries ship no fault injection and no test harness",
	},
	{
		from: []string{"internal/service", "internal/cluster"},
		to:   []string{"internal/chaos", "internal/audit", "internal/scenario"},
		why:  "the serving packages compile neither the harness nor what only the harness needs",
	},
	{
		from: []string{"internal/sched", "internal/event", "internal/lookahead"},
		to:   []string{"container/heap"},
		why:  "the simulator path keeps each queue in one hand-written value heap; container/heap brings back the any boxing and the per-push allocation",
	},
}

func TestImportBoundaries(t *testing.T) {
	for _, msg := range crossings(repoProgram(t), boundaries) {
		t.Error(msg)
	}
}

// crossings reports every module package that a rule's from covers and that
// reaches a package in its to, with the import chain that does it. A standard
// library package in to is matched only when imported directly.
func crossings(prog *program, rules []boundary) []string {
	under := func(dir string, roots []string) bool {
		for _, r := range roots {
			if dir == r || strings.HasPrefix(dir, r+"/") {
				return true
			}
		}
		return false
	}
	var msgs []string
	for _, rule := range rules {
		for _, p := range prog.order {
			if !under(p.dir, rule.from) {
				continue
			}
			// Breadth first over module imports, so the chain reported is a
			// shortest one.
			via := map[string]string{p.path: ""}
			queue := []string{p.path}
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				imports := slices.Clone(prog.pkgs[cur].types.Imports())
				sort.Slice(imports, func(i, j int) bool { return imports[i].Path() < imports[j].Path() })
				for _, imp := range imports {
					next := imp.Path()
					if prog.pkgs[next] == nil && cur == p.path && slices.Contains(rule.to, next) {
						msgs = append(msgs, fmt.Sprintf("%s reaches %s (%s → %s): %s", p.dir, next, p.dir, next, rule.why))
					}
					if _, seen := via[next]; seen || prog.pkgs[next] == nil {
						continue
					}
					via[next] = cur
					queue = append(queue, next)
					if dir := prog.pkgs[next].dir; under(dir, rule.to) {
						var chain []string
						for at := next; at != ""; at = via[at] {
							chain = append([]string{prog.pkgs[at].dir}, chain...)
						}
						msgs = append(msgs, fmt.Sprintf("%s reaches %s (%s): %s", p.dir, dir, strings.Join(chain, " → "), rule.why))
					}
				}
			}
		}
	}
	sort.Strings(msgs)
	return msgs
}
