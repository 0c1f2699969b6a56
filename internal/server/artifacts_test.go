package server

import (
	"net/http"
	"testing"

	"petabricks/internal/artifact"
)

const heat1dSrc = "../../testdata/heat1d.pbcc"

// artifactServer builds a test server whose registry also serves Heat1D
// (fully jit-lowerable, so it exercises the persistent tier) backed by
// an artifact store on dir.
func artifactServer(t *testing.T, dir string) (*Server, *httptest2) {
	t.Helper()
	arts, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, "", func(o *Options) {
		if err := o.Registry.LoadDSLFile(heat1dSrc); err != nil {
			t.Fatal(err)
		}
		o.Artifacts = arts
	})
	return srv, &httptest2{ts.URL}
}

// httptest2 wraps the test server URL so helpers read naturally.
type httptest2 struct{ URL string }

func runHeat1D(t *testing.T, baseURL string) {
	t.Helper()
	status, body := postJSON(t, baseURL+"/v1/run", map[string]any{
		"program": "Heat1D", "n": 32, "seed": 5,
	})
	if status != http.StatusOK {
		t.Fatalf("/v1/run Heat1D: status %d body %v", status, body)
	}
}

func artifactStats(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	status, body := getJSON(t, baseURL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", status)
	}
	sec, ok := body["artifacts"].(map[string]any)
	if !ok {
		t.Fatalf("/v1/stats has no artifacts section: %v", body)
	}
	return sec
}

// TestServerPersistsAndServesArtifacts drives the full service story:
// a run populates the disk tier, /v1/stats reports it, and a second
// server over the same directory serves the same request from the
// persisted bytecode with zero disk misses.
func TestServerPersistsAndServesArtifacts(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := artifactServer(t, dir)
	runHeat1D(t, ts1.URL)

	stats := artifactStats(t, ts1.URL)
	if stats["persistent"] != true {
		t.Fatalf("artifacts section not persistent: %v", stats)
	}
	disk := stats["disk"].(map[string]any)
	if disk["saves"].(float64) < 1 {
		t.Fatalf("no artifact saved after a Heat1D run: %v", disk)
	}

	// The restart: a second server over the same directory must serve
	// the identical request warm — disk hits, no disk misses.
	_, ts2 := artifactServer(t, dir)
	runHeat1D(t, ts2.URL)
	disk2 := artifactStats(t, ts2.URL)["disk"].(map[string]any)
	if disk2["hits"].(float64) < 1 {
		t.Errorf("restarted server recorded no disk hits: %v", disk2)
	}
	if disk2["misses"].(float64) != 0 {
		t.Errorf("restarted server recorded %v disk misses", disk2["misses"])
	}
}

// TestServerArtifactsDisabled pins the no-store behavior: the stats
// section reports the store disabled.
func TestServerArtifactsDisabled(t *testing.T) {
	_, ts := newTestServer(t, "", nil)
	stats := artifactStats(t, ts.URL)
	if stats["enabled"] != false {
		t.Errorf("artifacts section = %v, want enabled false", stats)
	}
}
