package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dagio"
)

// TestValidSessionID pins the assigned-ID validation boundary.
func TestValidSessionID(t *testing.T) {
	for _, ok := range []string{"abc", "A-b_0", strings.Repeat("x", 64)} {
		if !ValidSessionID(ok) {
			t.Errorf("ValidSessionID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "a b", "a/b", "a\nb", "a..b/"} {
		if ValidSessionID(bad) {
			t.Errorf("ValidSessionID(%q) = true", bad)
		}
	}
}

func postCreate(t *testing.T, ts *httptest.Server, assignID string) (*http.Response, SessionInfo) {
	t.Helper()
	body, err := json.Marshal(CreateSessionRequest{
		Workflow: dagio.Encode(smallWorkflow(3)),
		Policy:   "wire",
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if assignID != "" {
		req.Header.Set(SessionIDHeader, assignID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SessionInfo
	_ = json.NewDecoder(resp.Body).Decode(&info)
	return resp, info
}

// TestShardModeAssignedID pins the router contract: in shard mode the daemon
// honors the router-assigned session ID and treats a retried create as
// idempotent; outside shard mode the header is ignored.
func TestShardModeAssignedID(t *testing.T) {
	srv := New(Config{ShardMode: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, info := postCreate(t, ts, "router-assigned-1")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	if info.ID != "router-assigned-1" {
		t.Fatalf("assigned ID ignored: got %q", info.ID)
	}

	// A retried create (response lost, client retried) returns the existing
	// session rather than a duplicate error.
	resp, info = postCreate(t, ts, "router-assigned-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried create: HTTP %d, want 200", resp.StatusCode)
	}
	if info.ID != "router-assigned-1" || srv.Store().Len() != 1 {
		t.Fatalf("retried create made a new session: %q, %d sessions", info.ID, srv.Store().Len())
	}

	// Malformed assigned IDs are rejected, not sanitized.
	resp, _ = postCreate(t, ts, "../escape")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed assigned ID: HTTP %d, want 400", resp.StatusCode)
	}

	// Outside shard mode the header is ignored and the daemon draws its own.
	plain := New(Config{})
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	resp, info = postCreate(t, pts, "router-assigned-2")
	if resp.StatusCode != http.StatusCreated || info.ID == "router-assigned-2" {
		t.Fatalf("non-shard daemon honored the assigned ID: HTTP %d id %q", resp.StatusCode, info.ID)
	}
	// And the adopt endpoint is not mounted.
	ar, err := http.Post(pts.URL+"/v1/admin/adopt", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	ar.Body.Close()
	if ar.StatusCode != http.StatusNotFound {
		t.Fatalf("adopt endpoint mounted outside shard mode: HTTP %d", ar.StatusCode)
	}
}

// TestAdoptReplaysJournals pins the handoff mechanics end to end at the
// service layer: sessions journaled by one shard daemon are resurrected on a
// peer via POST /v1/admin/adopt, with the exactly-once plan cache intact —
// a replayed seq answers the decision the dead shard already released.
func TestAdoptReplaysJournals(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := New(Config{ShardMode: true, JournalDir: dirA})
	ats := httptest.NewServer(a.Handler())
	defer ats.Close()

	ctx := context.Background()
	ca := NewClient(ats.URL)
	wf := smallWorkflow(3)
	info, err := ca.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf), Policy: "wire"})
	if err != nil {
		t.Fatal(err)
	}
	snap := readySnapshot(wf)
	released, err := ca.Plan(ctx, info.ID, 1, snap)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" A (close its listener; its WALs stay on disk) and hand its
	// journal directory to B.
	ats.Close()
	b := New(Config{ShardMode: true, JournalDir: dirB})
	bts := httptest.NewServer(b.Handler())
	defer bts.Close()

	body, _ := json.Marshal(AdoptRequest{JournalDirs: []string{dirA}, From: "a", Epoch: 1})
	resp, err := http.Post(bts.URL+"/v1/admin/adopt", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ar AdoptResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ar.Sessions != 1 {
		t.Fatalf("adopt: HTTP %d, %d sessions, want 200/1", resp.StatusCode, ar.Sessions)
	}

	cb := NewClient(bts.URL)
	replayed, err := cb.Plan(ctx, info.ID, 1, snap)
	if err != nil {
		t.Fatalf("adopted session does not answer: %v", err)
	}
	rb, _ := json.Marshal(released.Decision)
	pb, _ := json.Marshal(replayed.Decision)
	if !bytes.Equal(rb, pb) {
		t.Fatalf("replayed seq decision changed across adoption: %s != %s", rb, pb)
	}

	// A second adoption of the same directory is idempotent: the sessions
	// already live on B, and the reported count still covers them all.
	resp2, err := http.Post(bts.URL+"/v1/admin/adopt", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ar2 AdoptResponse
	_ = json.NewDecoder(resp2.Body).Decode(&ar2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || ar2.Sessions != 1 {
		t.Fatalf("retried adopt: HTTP %d, %d sessions, want 200/1", resp2.StatusCode, ar2.Sessions)
	}
	if b.Store().Len() != 1 {
		t.Fatalf("retried adopt duplicated sessions: %d", b.Store().Len())
	}

	// The handoff shows up in the shard's fault-tolerance counters.
	dump := b.Metrics().Dump(time.Now(), b.Store().Len())
	if dump.FaultTolerance.SessionsAdoptedTotal != 1 {
		t.Errorf("sessions_adopted_total = %d, want 1", dump.FaultTolerance.SessionsAdoptedTotal)
	}
}
