package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
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

// The report ends with the run's Gantt chart, pool sparkline and event
// counts.
func TestReportCharts(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "tpch6-s", "", 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Run report — tpch6-s under wire", "slot occupancy per instance", "\npool |", "\nevents: 33 starts, 33 completions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if err := run(io.Discard, "bogus", "", 0); err == nil {
		t.Error("unknown workflow key accepted")
	}
}
