package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildServeBinary compiles the CLI once per test into dir and returns the
// binary path.
func buildServeBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "scalesim-e2e")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startServe launches `scalesim serve` with a journaling store and waits
// for the bound address via -port-file.
func startServe(t *testing.T, bin, storeDir, portFile string) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(portFile) //nolint:errcheck
	cmd := exec.Command(bin, "serve",
		"-addr", "127.0.0.1:0", "-port-file", portFile,
		"-store", storeDir, "-shards", "1", "-queue", "32")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			return cmd, "http://" + strings.TrimSpace(string(b))
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck
			t.Fatal("serve did not write its port file in 20s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// slowRunBody builds a run with many distinct heavyweight GEMMs so the
// single worker is still busy when the process is killed.
func slowRunBody(layers int) string {
	var sb strings.Builder
	sb.WriteString(`{"config": {"preset": "default"}, "topology": {"name": "slow", "layers": [`)
	for i := 0; i < layers; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"name": "l%d", "kind": "gemm", "m": 384, "n": 384, "k": %d}`, i, 256+i)
	}
	sb.WriteString(`]}}`)
	return sb.String()
}

// stopServe shuts a serve process down gracefully, escalating to SIGKILL
// if the drain takes longer than 30s.
func stopServe(cmd *exec.Cmd) {
	cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
	}
}

// TestServeSIGKILLResumesJournaledJobs is the crash-recovery e2e: a served
// process is SIGKILLed with accepted jobs still pending; a restart on the
// same -store directory must resume them from the job journal and run every
// one to done.
//
// The kill races job execution, so the crash cycle retries on a fresh store
// if every job drained before the signal landed. The jobs are heavy enough
// (thousands of distinct layers) that losing the race even once is rare.
func TestServeSIGKILLResumesJournaledJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	work := t.TempDir()
	bin := buildServeBinary(t, work)
	body := slowRunBody(4000)

	var cmd2 *exec.Cmd
	var base2 string
	resumed := 0
	for attempt := 0; attempt < 5 && resumed < 1; attempt++ {
		storeDir := filepath.Join(work, fmt.Sprintf("store%d", attempt))
		portFile := filepath.Join(work, fmt.Sprintf("port%d", attempt))

		cmd, base := startServe(t, bin, storeDir, portFile)
		// Three slow runs on one worker: the first may start, the rest queue.
		for i := 0; i < 3; i++ {
			resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				cmd.Process.Kill() //nolint:errcheck
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				cmd.Process.Kill() //nolint:errcheck
				t.Fatalf("POST %d = %d; body: %s", i, resp.StatusCode, raw)
			}
		}

		// Crash: SIGKILL gives the process no chance to drain or journal
		// terminal states.
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() //nolint:errcheck

		cmd2, base2 = startServe(t, bin, storeDir, portFile)
		resumed = scrapeResumed(t, base2)
		if resumed < 1 {
			// All three jobs finished before the kill landed; retry the
			// whole crash on a fresh store.
			t.Logf("attempt %d: jobs drained before SIGKILL, retrying", attempt)
			stopServe(cmd2)
			cmd2 = nil
		}
	}
	if resumed < 1 {
		t.Fatal("jobs drained before SIGKILL on every attempt; could not exercise resume")
	}
	defer stopServe(cmd2)

	// Every resumed job must reach done — the specs are valid and the
	// store-backed cache makes re-execution cheap.
	deadline := time.Now().Add(60 * time.Second)
	for {
		jobs := listJobs(t, base2)
		if len(jobs) < resumed {
			t.Fatalf("restart shows %d jobs, journal resumed %d", len(jobs), resumed)
		}
		pending, failed := 0, 0
		for _, j := range jobs {
			switch j.State {
			case "queued", "running":
				pending++
			case "failed", "canceled":
				failed++
			}
		}
		if pending == 0 {
			if failed != 0 {
				t.Fatalf("%d resumed jobs failed after restart: %+v", failed, jobs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed jobs still pending after 60s: %+v", jobs)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

type e2eJob struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

func listJobs(t *testing.T, base string) []e2eJob {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []e2eJob `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Jobs
}

// scrapeResumed reads scalesim_jobs_resumed_total off /metrics.
func scrapeResumed(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "scalesim_jobs_resumed_total "); ok {
			var n int
			if _, err := fmt.Sscanf(rest, "%d", &n); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatal("scalesim_jobs_resumed_total missing from /metrics")
	return 0
}
