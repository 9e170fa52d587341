// Tests for the job-spec wire format: specs from older clients and
// servers that still carry the removed "snapshot" key, and the request
// body cap on spec submissions.
package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"failatomic/internal/serve"
	"failatomic/internal/serve/client"
)

// postSpec POSTs a raw JSON body to path and returns the status code and
// the decoded job status (zero unless the body is one).
func postSpec(t *testing.T, url, path, body string) (int, serve.JobStatus) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	_ = json.Unmarshal(data, &st) // an error body leaves st zero
	return resp.StatusCode, st
}

// TestLegacySpecJSONRecovers: job directories an older server wrote with
// a "snapshot" key still load. A pending one recovers at boot and runs to
// done with the same log as a fresh run of the spec without the key, and
// a done one is the drift baseline of that keyless spec.
func TestLegacySpecJSONRecovers(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	plantDriftBaseline(t, dataDir, "j0000000000000001", `{"app":"LinkedList","snapshot":"capture"}`)
	jobDir := filepath.Join(dataDir, "jobs", "j0000000000000002")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := `{"id":"j0000000000000002","spec":{"app":"HashedSet","snapshot":"capture"},"sched":{"id":"j0000000000000002","priority":1,"seq":2,"ord":2,"shares":1}}`
	if err := os.WriteFile(filepath.Join(jobDir, "spec.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	_, c, _ := bootServer(t, dataDir, 1, 16)
	st, err := c.Wait(ctx, "j0000000000000002")
	if err != nil {
		t.Fatal(err)
	}
	wantLog, _, wantExit := localReference(t, fastSpec())
	if st.State != serve.StateDone || st.ExitCode != wantExit || st.Spec != fastSpec() {
		t.Fatalf("recovered legacy job = %+v, want done/%d with spec %+v", st, wantExit, fastSpec())
	}
	if log, err := c.Log(ctx, st.ID); err != nil || string(log) != string(wantLog) {
		t.Fatalf("recovered legacy job log differs from a fresh run (err %v)", err)
	}

	id, err := c.Submit(ctx, serve.JobSpec{App: "LinkedList"})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Wait(ctx, id); err != nil || got.State != serve.StateDrifted {
		t.Fatalf("keyless run = %+v, %v, want drifted against the legacy baseline", got, err)
	}
}

// TestLegacyCrontabLoads: a crontab.json entry whose spec carries the
// "snapshot" key loads at boot and fires the keyless spec.
func TestLegacyCrontabLoads(t *testing.T) {
	dataDir := t.TempDir()
	table := `[{"id":"c00000001","schedule":"@every 50ms","spec":{"app":"HashedSet","snapshot":"capture"}}]`
	if err := os.WriteFile(filepath.Join(dataDir, "crontab.json"), []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	_, url, _ := bootServerCfg(t, serve.Config{DataDir: dataDir, Workers: 1, QueueDepth: 16})
	c := client.New(url)
	ctx := context.Background()

	list, err := c.Crontabs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "c00000001" || list[0].Spec != fastSpec() {
		t.Fatalf("crontabs = %+v, want c00000001 with spec %+v", list, fastSpec())
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		page, err := c.List(ctx, serve.ListQuery{Crontab: "c00000001", State: serve.StateDone})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Jobs) > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("legacy crontab produced no completed firing in 30s")
}

// TestLegacySubmitIgnoresSnapshotKey: a raw POST /v1/jobs body with an
// unparseable "snapshot" value is admitted, and the key is dropped.
func TestLegacySubmitIgnoresSnapshotKey(t *testing.T) {
	_, url, _ := bootServerCfg(t, serve.Config{DataDir: t.TempDir(), Workers: 1, QueueDepth: 16})
	code, st := postSpec(t, url, "/v1/jobs", `{"app":"HashedSet","snapshot":"bogus"}`)
	if code != http.StatusAccepted || st.Spec != fastSpec() {
		t.Fatalf("legacy submission = %d %+v, want 202 with spec %+v", code, st, fastSpec())
	}
	if got, err := client.New(url).Wait(context.Background(), st.ID); err != nil || got.State != serve.StateDone {
		t.Fatalf("legacy job = %+v, %v, want done", got, err)
	}
}

// TestSpecBodyCap: an oversized job or crontab spec is refused with 413
// and leaves nothing on disk; a normal spec is still admitted.
func TestSpecBodyCap(t *testing.T) {
	dataDir := t.TempDir()
	_, url, _ := bootServerCfg(t, serve.Config{DataDir: dataDir, Workers: 1, QueueDepth: 16})
	huge := strings.Repeat("x", 128<<10)

	if code, _ := postSpec(t, url, "/v1/jobs", `{"app":"HashedSet","perturb":"`+huge+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job spec = %d, want 413", code)
	}
	if code, _ := postSpec(t, url, "/v1/crontabs", `{"schedule":"@every 1h","spec":{"app":"`+huge+`"}}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized crontab spec = %d, want 413", code)
	}
	specs, err := filepath.Glob(filepath.Join(dataDir, "jobs", "*", "spec.json"))
	if err != nil || len(specs) != 0 {
		t.Fatalf("oversized spec left %v on disk (%v)", specs, err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "crontab.json")); !os.IsNotExist(err) {
		t.Fatalf("oversized crontab spec left crontab.json on disk (%v)", err)
	}

	code, st := postSpec(t, url, "/v1/jobs", `{"app":"HashedSet"}`)
	if code != http.StatusAccepted {
		t.Fatalf("normal job spec = %d, want 202", code)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "jobs", st.ID, "spec.json")); err != nil {
		t.Fatalf("admitted job has no spec.json: %v", err)
	}
}
