package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLatestBenchDoc pins the default baseline: the highest-numbered
// trajectory point, compared numerically, ignoring the unnumbered documents.
func TestLatestBenchDoc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files []string
		want  string // "" = error
	}{
		{"numeric not lexical", []string{"BENCH_9.json", "BENCH_13.json", "BENCH_14.json", "BENCH_baseline.json", "BENCH_ci.json"}, "BENCH_14.json"},
		{"single", []string{"BENCH_6.json", "README.md"}, "BENCH_6.json"},
		{"only unnumbered", []string{"BENCH_baseline.json", "BENCH_ci.json", "BENCH_.json", "BENCH_7.json.bak"}, ""},
		{"empty", nil, ""},
	} {
		dir := t.TempDir()
		for _, f := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, f), []byte("{}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := latestBenchDoc(dir)
		if err == nil {
			got = filepath.Base(got)
		}
		if got != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("%s: latestBenchDoc = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
}
