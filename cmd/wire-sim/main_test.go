package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/service"
)

// A run planned through a daemon deletes its session on the way out, also
// when planning fails part-way: a session left behind would hold a daemon
// slot until the idle sweep.
func TestRemoteRunDeletesItsSession(t *testing.T) {
	for _, tc := range []struct {
		name    string
		failAll bool
	}{
		{"plans", false},
		{"plan fails", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var creates atomic.Int32
			srv := service.New(service.Config{Middleware: func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
						creates.Add(1)
					}
					if tc.failAll && strings.HasSuffix(r.URL.Path, "/plan") {
						http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
						return
					}
					next.ServeHTTP(w, r)
				})
			}})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			err := run(io.Discard, "tpch6-s", ts.URL, 0)
			if tc.failAll != (err != nil) {
				t.Fatalf("run: %v", err)
			}
			if err != nil && !strings.Contains(err.Error(), "remote planning") {
				t.Fatalf("run failed for another reason: %v", err)
			}
			if creates.Load() != 1 {
				t.Fatalf("%d sessions created, want 1", creates.Load())
			}
			if ids := srv.Store().IDs(); len(ids) != 0 {
				t.Errorf("sessions left on the daemon: %v", ids)
			}
		})
	}
}

// wire-sim -workflow genome-s prints testdata/genome-s.txt: the run
// report, pool timeline, Gantt chart, pool sparkline and event counts. The
// comparison leaves out the measured controller-wall row and the column
// padding it moves; chart lines, which hold a '|', compare exactly.
func TestReportCharts(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "genome-s", "", 0); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/genome-s.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := unpadded(out.String()); got != unpadded(string(want)) {
		t.Errorf("wire-sim -workflow genome-s differs from testdata/genome-s.txt; it printed:\n%s", out.String())
	}
	if err := run(io.Discard, "bogus", "", 0); err == nil {
		t.Error("unknown workflow key accepted")
	}
}

// unpadded drops the controller-wall row, and in table lines turns each run
// of spaces into one and each dashed rule into a single dash.
func unpadded(s string) string {
	var lines []string
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if strings.HasPrefix(line, "controller wall ") {
			continue
		}
		if !strings.Contains(line, "|") {
			fields := strings.Fields(line)
			for i, f := range fields {
				if strings.Trim(f, "-") == "" {
					fields[i] = "-"
				}
			}
			line = strings.Join(fields, " ")
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n")
}
