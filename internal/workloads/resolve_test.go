package workloads

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dagio"
)

func TestResolve(t *testing.T) {
	doc := dagio.Encode(Linear(3, 10))
	if wf, seed, err := Resolve(doc, "", 7); err != nil || wf.NumTasks() != 3 || seed != 0 {
		t.Errorf("inline document: %d tasks, seed %d, err %v; want 3 tasks, seed 0", wf.NumTasks(), seed, err)
	}
	for _, c := range []struct{ in, want int64 }{{0, 1}, {1, 1}, {5, 5}, {-2, -2}} {
		wf, seed, err := Resolve(nil, "tpch6-s", c.in)
		if err != nil || seed != c.want {
			t.Fatalf("seed %d resolved to %d (err %v), want %d", c.in, seed, err, c.want)
		}
		run, _ := ByKey("tpch6-s")
		if got, want := Digest(wf), Digest(run.Generate(c.want)); got != want {
			t.Errorf("seed %d: resolved workflow digest %s, want the seed-%d generation's %s", c.in, got, c.want, want)
		}
	}
	for name, err := range map[string]error{
		"both":    second(Resolve(doc, "tpch6-s", 1)),
		"neither": second(Resolve(nil, "", 1)),
		"unknown": second(Resolve(nil, "nope", 1)),
	} {
		if err == nil {
			t.Errorf("%s: resolved", name)
		}
	}
}

func second[A, B any](_ A, _ B, err error) error { return err }

// TestDigestSeesEveryField changes one field a dagio document carries at a
// time, one string boundary and a zero's sign, and requires a different digest for each;
// the document's own round trip keeps it.
func TestDigestSeesEveryField(t *testing.T) {
	digest := func(edit func(*dagio.Document)) string {
		t.Helper()
		doc := dagio.Encode(Catalog()[0].Generate(1))
		edit(doc)
		wf, err := dagio.Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		return Digest(wf)
	}
	want := digest(func(*dagio.Document) {})
	if got := Digest(Catalog()[0].Generate(1)); got != want {
		t.Fatalf("a document round trip changes the digest: %s → %s", got, want)
	}
	if len(want) != 64 || strings.Trim(want, "0123456789abcdef") != "" {
		t.Fatalf("digest %q is not 64 hex digits", want)
	}
	last := Catalog()[0].Generate(1).NumTasks() - 1
	for name, edit := range map[string]func(*dagio.Document){
		"workflow name": func(d *dagio.Document) { d.Name += "x" },
		"stage name":    func(d *dagio.Document) { d.Stages[1].Name += "x" },
		"task name":     func(d *dagio.Document) { d.Tasks[3].Name += "x" },
		"name boundary": func(d *dagio.Document) {
			d.Tasks[0].Name, d.Tasks[1].Name = d.Tasks[0].Name+d.Tasks[1].Name[:1], d.Tasks[1].Name[1:]
		},
		"task stage":    func(d *dagio.Document) { d.Tasks[last].Stage-- },
		"dependency":    func(d *dagio.Document) { d.Tasks[last].Deps = d.Tasks[last].Deps[1:] },
		"exec time":     func(d *dagio.Document) { d.Tasks[2].ExecTime = math.Nextafter(d.Tasks[2].ExecTime, 0) },
		"transfer time": func(d *dagio.Document) { d.Tasks[2].TransferTime = math.Nextafter(d.Tasks[2].TransferTime, 1e9) },
		"input size":    func(d *dagio.Document) { d.Tasks[2].InputSize = math.Nextafter(d.Tasks[2].InputSize, 0) },
		"output size":   func(d *dagio.Document) { d.Tasks[2].OutputSize = math.Nextafter(d.Tasks[2].OutputSize, 0) },
		"extra task": func(d *dagio.Document) {
			d.Tasks = append(d.Tasks, dagio.TaskDoc{ID: len(d.Tasks), Stage: d.Tasks[last].Stage, ExecTime: 1})
		},
	} {
		if got := digest(edit); got == want {
			t.Errorf("%s: the digest did not change", name)
		}
	}
	// The bits, not the value: -0 == 0, but a document can carry either.
	if digest(func(d *dagio.Document) { d.Tasks[0].TransferTime = 0 }) ==
		digest(func(d *dagio.Document) { d.Tasks[0].TransferTime = math.Copysign(0, -1) }) {
		t.Error("negative zero: the digest did not change")
	}
}

func TestRegenerate(t *testing.T) {
	wf, seed, err := Resolve(nil, "tpch6-s", 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest(wf)
	if got, err := Regenerate("tpch6-s", seed, digest); err != nil || Digest(got) != digest {
		t.Fatalf("regenerating the journaled workflow: %v", err)
	}
	_, err = Regenerate("tpch6-s", seed, strings.Repeat("0", 64))
	if err == nil || !strings.Contains(err.Error(), `"tpch6-s" seed 1`) {
		t.Fatalf("a digest mismatch answered %v, want an error naming the key and the seed", err)
	}
	if _, err := Regenerate("tpch6-s", 2, digest); err == nil {
		t.Fatal("another seed's workflow passed the digest")
	}
}
