package debugsrv

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"viper/internal/leakcheck"
	"viper/internal/metrics"
)

// TestMain gates the package on goroutine hygiene: Close must take the
// serve loop and every connection handler with it.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}

func get(t *testing.T, client *http.Client, url string) (status int, body []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServesPprofAndMetrics binds a free port, fetches the pprof index, one
// profile and the registry dump, and shuts down leaving nothing behind.
func TestServesPprofAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry("debugsrv_test")
	reg.Counter("pings").Add(3)
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()

	if status, body := get(t, client, base+"/debug/pprof/"); status != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("GET /debug/pprof/: status %d, body %.80q", status, body)
	}
	if status, body := get(t, client, base+"/debug/pprof/heap?debug=1"); status != http.StatusOK || !strings.Contains(string(body), "heap profile") {
		t.Fatalf("GET /debug/pprof/heap: status %d, body %.80q", status, body)
	}
	status, body := get(t, client, base+"/metrics")
	var snaps []metrics.Snapshot
	if err := json.Unmarshal(body, &snaps); status != http.StatusOK || err != nil {
		t.Fatalf("GET /metrics: status %d, err %v, body %.80q", status, err, body)
	}
	found := false
	for _, snap := range snaps {
		if snap.Registry == "debugsrv_test" {
			found = snap.Get("pings").Value == 3
		}
	}
	if !found {
		t.Fatalf("/metrics does not carry this test's registry with pings = 3: %s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(base + "/metrics"); err == nil {
		t.Fatal("the endpoint still answers after Close")
	}
}

// TestEmptyAddrStartsNothing: the flag's default.
func TestEmptyAddrStartsNothing(t *testing.T) {
	s, err := Start("")
	if s != nil || err != nil {
		t.Fatalf("Start(\"\") = %v, %v", s, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
