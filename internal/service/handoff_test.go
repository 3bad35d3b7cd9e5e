package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dagio"
)

func postShardAdmin(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestExportAdoptFileMigration pins the planned-migration mechanics at the
// service layer: a session exported from its donor by name, handed to a peer
// as a WAL file, answers a replayed seq byte-identically on the new owner —
// and requests carrying an epoch below the highest a shard has seen are
// refused with 409 stale_epoch.
func TestExportAdoptFileMigration(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := New(Config{ShardMode: true, JournalDir: dirA})
	ats := httptest.NewServer(a.Handler())
	defer ats.Close()
	b := New(Config{ShardMode: true, JournalDir: dirB})
	bts := httptest.NewServer(b.Handler())
	defer bts.Close()

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

	// Export by name at epoch 5. Unknown IDs come back in Missing, not as an
	// error: the router reconciles them.
	resp, body := postShardAdmin(t, ats.URL+"/v1/admin/export", ExportRequest{
		SessionIDs: []string{info.ID, "never-here"}, Epoch: 5, To: "b",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: HTTP %d: %s", resp.StatusCode, body)
	}
	var er ExportResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Sessions != 1 || len(er.JournalFiles) != 1 {
		t.Fatalf("export response %+v, want 1 session / 1 file", er)
	}
	if len(er.Missing) != 1 || er.Missing[0] != "never-here" {
		t.Fatalf("Missing = %v, want [never-here]", er.Missing)
	}
	if a.Store().Len() != 0 {
		t.Fatalf("donor still hosts %d sessions after export", a.Store().Len())
	}
	// The donor answers requests for the departed session with the distinct
	// fenced code so clients re-resolve through the router.
	if _, err := ca.State(ctx, info.ID); err == nil {
		t.Fatal("exported session still answers on the donor")
	}

	// Adopt the exported file at the same epoch.
	resp, body = postShardAdmin(t, bts.URL+"/v1/admin/adopt", AdoptRequest{
		JournalFiles: er.JournalFiles, From: "a", Epoch: 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopt: HTTP %d: %s", resp.StatusCode, body)
	}
	var ar AdoptResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Sessions != 1 || b.Store().Len() != 1 {
		t.Fatalf("adopt reported %d sessions, store holds %d, want 1/1", ar.Sessions, b.Store().Len())
	}

	// The replayed seq answers the decision the donor already released —
	// byte-identical, not re-planned.
	cb := NewClient(bts.URL)
	replayed, err := cb.Plan(ctx, info.ID, 1, snap)
	if err != nil {
		t.Fatalf("migrated session does not answer: %v", err)
	}
	rb, _ := json.Marshal(released.Decision)
	pb, _ := json.Marshal(replayed.Decision)
	if !bytes.Equal(rb, pb) {
		t.Fatalf("replayed seq decision changed across migration: %s != %s", rb, pb)
	}
	// And the session keeps planning forward on the new owner.
	if _, err := cb.Plan(ctx, info.ID, 2, snap); err != nil {
		t.Fatalf("migrated session cannot plan a new seq: %v", err)
	}

	// Epoch ratchet: both admin endpoints refuse an epoch below the highest
	// seen, with the distinct stale_epoch code.
	for _, tc := range []struct {
		url  string
		body any
	}{
		{ats.URL + "/v1/admin/export", ExportRequest{SessionIDs: []string{"x"}, Epoch: 3}},
		{bts.URL + "/v1/admin/adopt", AdoptRequest{JournalFiles: []string{filepath.Join(dirA, "x.wal")}, Epoch: 3}},
	} {
		resp, body = postShardAdmin(t, tc.url, tc.body)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s at stale epoch: HTTP %d: %s, want 409", tc.url, resp.StatusCode, body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "stale_epoch" {
			t.Fatalf("stale-epoch error body %s, want code stale_epoch", body)
		}
	}

	// A retried adopt of the same (now consumed) file set is idempotent.
	resp, body = postShardAdmin(t, bts.URL+"/v1/admin/adopt", AdoptRequest{
		JournalFiles: er.JournalFiles, From: "a", Epoch: 5,
	})
	var ar2 AdoptResponse
	_ = json.Unmarshal(body, &ar2)
	if resp.StatusCode != http.StatusOK || ar2.Sessions != 1 || b.Store().Len() != 1 {
		t.Fatalf("retried adopt: HTTP %d sessions %d store %d, want 200/1/1", resp.StatusCode, ar2.Sessions, b.Store().Len())
	}
}

// TestFencedAppendWithholdsDecision is the double-serve test at the service
// layer: a peer fences and adopts a live shard's WAL out from under it (the
// shard was wrongly declared dead), and the stale shard must WITHHOLD any
// decision it would have appended after the fence — answering 503
// session_fenced instead of releasing a decision the adopter will never see.
func TestFencedAppendWithholdsDecision(t *testing.T) {
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

	// A is still serving when the router (believing it dead) hands its WAL
	// to B. The fence lands under A's feet.
	b := New(Config{ShardMode: true, JournalDir: dirB})
	total, fresh := b.AdoptJournalFiles([]string{filepath.Join(dirA, info.ID+".wal")}, 2, "a")
	if total != 1 || fresh != 1 {
		t.Fatalf("adopt = (%d, %d), want (1, 1)", total, fresh)
	}

	// The stale shard re-checks the fence after every synced append: a NEW
	// seq (which must append) is withheld with the fenced code. A retried
	// seq still answers from cache — that decision was already released and
	// is in the adopted copy.
	_, err = ca.Plan(ctx, info.ID, 2, snap)
	if err == nil {
		t.Fatal("fenced shard released a new decision (double-serve)")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeSessionFenced {
		t.Fatalf("fenced plan error = %v, want code %s", err, CodeSessionFenced)
	}

	// The adopter holds the full released history.
	bts := httptest.NewServer(b.Handler())
	defer bts.Close()
	cb := NewClient(bts.URL)
	replayed, err := cb.Plan(ctx, info.ID, 1, snap)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := json.Marshal(released.Decision)
	pb, _ := json.Marshal(replayed.Decision)
	if !bytes.Equal(rb, pb) {
		t.Fatalf("adopted decision differs from what the donor released: %s != %s", rb, pb)
	}
	if _, err := cb.Plan(ctx, info.ID, 2, snap); err != nil {
		t.Fatalf("adopter cannot plan the seq the stale shard withheld: %v", err)
	}

	// A restarted process on A's journal dir must NOT resurrect the fenced
	// session.
	a2 := New(Config{ShardMode: true, JournalDir: dirA})
	if got := a2.Store().Len(); got != 0 {
		t.Fatalf("restart on a fenced journal dir resurrected %d sessions", got)
	}
}

// adoptOutcome is what an adoption leaves behind, for comparing two.
type adoptOutcome struct {
	total, fresh int
	sessions     map[string]adoptedSession
	fences       map[string]string // source WAL name → fence body
	copies       map[string]string // adopter's journal file name → bytes
}

type adoptedSession struct {
	tenant   string
	lastSeq  int64
	lastBody string
	state    any
}

// TestAdoptManyWALsMatchesSerial is the certificate of adopting on the pool:
// 24 WALs of uneven length — as a directory, and as a file list that names
// every file twice — claimed through AdoptJournalDir / AdoptJournalFiles and
// claimed one at a time by a plain loop must leave the same counts, the same
// sessions with the same controller state and exactly-once cache, the same
// fence files on the source and the same journal copies on the adopter. Under
// -race it is the concurrency certificate of the claim path.
func TestAdoptManyWALsMatchesSerial(t *testing.T) {
	const n = 24
	donor := newJournaledShard(t, t.TempDir())
	wf := fanWorkflow()
	snaps := goldenSnapshots(wf)
	for _, s := range snaps {
		s.Workflow = nil
	}
	for i := 0; i < n; i++ {
		id := "adoptee-" + string(rune('a'+i))
		req := CreateSessionRequest{Workflow: dagio.Encode(wf), Controller: &ControllerSpec{MinPool: 1 + i%3}}
		if i%2 == 0 {
			req.Tenant = "tenant-" + string(rune('a'+i%4))
		}
		donor.create(t, id, req)
		for k := 0; k <= i%len(snaps); k++ {
			posted := snaps[k]
			if k > 0 {
				posted = deltaOf(snaps[k-1], snaps[k])
			}
			if status, body := donor.postSnapshot(t, id, int64(k+1), posted); status != http.StatusOK {
				t.Fatalf("%s seq %d: HTTP %d %s", id, k+1, status, body)
			}
		}
	}
	names, err := filepath.Glob(filepath.Join(donor.dir, "*.wal"))
	if err != nil || len(names) != n {
		t.Fatalf("donor wrote %d WALs (err %v), want %d", len(names), err, n)
	}

	// source gives each adopter its own copy of the donor's directory: a claim
	// fences the files it takes.
	source := func() (dir string, paths []string) {
		dir = t.TempDir()
		for _, src := range names {
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join(dir, filepath.Base(src))
			if err := os.WriteFile(dst, data, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, dst)
		}
		return dir, paths
	}
	readDir := func(dir, suffix string) map[string]string {
		out := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), suffix) {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				out[e.Name()] = string(data)
			}
		}
		return out
	}
	outcome := func(adopt func(s *Server, dir string, paths []string) (total, fresh int)) adoptOutcome {
		src, paths := source()
		s := New(Config{ShardMode: true, JournalDir: t.TempDir()})
		out := adoptOutcome{sessions: map[string]adoptedSession{}}
		out.total, out.fresh = adopt(s, src, paths)
		for _, id := range s.Store().IDs() {
			sess, err := s.Store().Get(id)
			if err != nil {
				t.Fatal(err)
			}
			sess.mu.Lock()
			out.sessions[id] = adoptedSession{tenant: sess.Tenant, lastSeq: sess.lastSeq, lastBody: string(sess.lastBody),
				state: sess.ctrl.(stateDumper).State()}
			sess.mu.Unlock()
		}
		out.fences = readDir(src, ".fence")
		out.copies = readDir(s.cfg.JournalDir, ".wal")
		return out
	}
	// twice names every file two times in a row, so that on the pool the two
	// claims of one session would start together.
	twice := func(paths []string) []string {
		var out []string
		for _, p := range paths {
			out = append(out, p, p)
		}
		return out
	}
	serially := func(list func([]string) []string) func(s *Server, _ string, paths []string) (total, fresh int) {
		return func(s *Server, _ string, paths []string) (total, fresh int) {
			for _, p := range list(paths) {
				n, f := s.adoptWAL(p, 7, "donor")
				total, fresh = total+n, fresh+f
			}
			return total, fresh
		}
	}
	once := func(paths []string) []string { return paths }

	for _, tc := range []struct {
		name           string
		wantTotal      int
		pooled, serial func(s *Server, dir string, paths []string) (total, fresh int)
	}{
		{"directory", n, func(s *Server, dir string, _ []string) (int, int) {
			total, fresh, err := s.AdoptJournalDir(dir, 7, "donor")
			if err != nil {
				t.Fatal(err)
			}
			return total, fresh
		}, serially(once)},
		{"files, each named twice", 2 * n, func(s *Server, _ string, paths []string) (int, int) {
			return s.AdoptJournalFiles(twice(paths), 7, "donor")
		}, serially(twice)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := outcome(tc.pooled), outcome(tc.serial)
			if want.total != tc.wantTotal || want.fresh != n || len(want.sessions) != n || len(want.fences) != n || len(want.copies) != n {
				t.Fatalf("the serial walk adopted %d (%d fresh): %d sessions, %d fences, %d copies; want %d (%d fresh) and %d of each",
					want.total, want.fresh, len(want.sessions), len(want.fences), len(want.copies), tc.wantTotal, n, n)
			}
			if got.total != want.total || got.fresh != want.fresh {
				t.Errorf("adopted %d (%d fresh), the serial walk %d (%d fresh)", got.total, got.fresh, want.total, want.fresh)
			}
			if !reflect.DeepEqual(got.sessions, want.sessions) {
				t.Errorf("the store holds different sessions than after the serial walk (%d and %d)", len(got.sessions), len(want.sessions))
			}
			if !reflect.DeepEqual(got.fences, want.fences) {
				t.Errorf("fence files differ from the serial walk's: %v\nand\n%v", got.fences, want.fences)
			}
			if !reflect.DeepEqual(got.copies, want.copies) {
				t.Errorf("the adopter's journal copies differ from the serial walk's")
			}
		})
	}
}
