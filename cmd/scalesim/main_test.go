package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"scalesim"
)

// TestCLIRejectsUnknownValues drives the built binary: a fidelity or preset
// name the simulator does not know — including the removed per-cycle tier —
// must exit non-zero before any report is written, naming the valid values;
// so must a leftover positional argument.
func TestCLIRejectsUnknownValues(t *testing.T) {
	dir := t.TempDir()
	bin := buildServeBinary(t, dir)
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"run removed fidelity", []string{"run", "-topology", "alexnet", "-fidelity", "cycle"},
			`unknown fidelity "cycle" (valid: analytical, event)`},
		{"explore removed fidelity", []string{"explore", "-topology", "alexnet", "-space", "array=8..16:pow2", "-fidelity", "cycle-accurate"},
			`unknown fidelity "cycle-accurate" (valid: analytical, event)`},
		// The same text POST /v1/explore answers with (TestServerRequestErrors),
		// and before the topology is even looked at.
		{"explore unknown strategy", []string{"explore", "-topology", "no-such-model", "-space", "array=8..16:pow2", "-strategy", "nope"},
			`unknown strategy "nope" (valid: grid, random, evolve, auto)`},
		{"unknown preset", []string{"run", "-topology", "alexnet", "-preset", "gpu"},
			`unknown preset "gpu" (valid: default, tpu, eyeriss)`},
		// flag stops at the first non-flag word: the flags after it must not
		// be dropped silently, and a removed subcommand is not a topology.
		{"run stray argument", []string{"-topology", "alexnet", "stray", "-energy"},
			`unexpected argument "stray"`},
		{"removed bench subcommand", []string{"bench"}, `unexpected argument "bench"`},
		{"explore stray argument", []string{"explore", "-topology", "alexnet", "-space", "array=8..16:pow2", "stray"},
			`unexpected argument "stray"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cmd := exec.Command(bin, append(tt.args, "-outdir", dir)...)
			out, err := cmd.CombinedOutput()
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("scalesim %v: err = %v, want a non-zero exit; output: %s", tt.args, err, out)
			}
			if !strings.Contains(string(out), tt.want) {
				t.Errorf("scalesim %v output %q does not contain %q", tt.args, out, tt.want)
			}
		})
	}
}

// TestCLICacheRejectsMissingStore drives the built binary: `cache verify`
// and `cache stats` on a path that holds no store must exit non-zero naming
// the path, and create nothing there, so a mistyped -store never verifies
// clean.
func TestCLICacheRejectsMissingStore(t *testing.T) {
	dir := t.TempDir()
	bin := buildServeBinary(t, dir)
	store := filepath.Join(dir, "no", "such", "store")
	for _, action := range []string{"verify", "stats"} {
		t.Run(action, func(t *testing.T) {
			out, err := exec.Command(bin, "cache", action, "-store", store).CombinedOutput()
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("cache %s: err = %v, want a non-zero exit; output: %s", action, err, out)
			}
			if !strings.Contains(string(out), store) {
				t.Errorf("cache %s output %q does not name %s", action, out, store)
			}
			if _, err := os.Stat(filepath.Join(dir, "no")); !os.IsNotExist(err) {
				t.Errorf("cache %s created %s (stat err %v)", action, filepath.Join(dir, "no"), err)
			}
		})
	}
}

// TestCLIRunTracesEndToEnd drives the built binary on a three-layer
// topology whose last layer repeats the first's shape: `run -memory
// -traces` writes the reports `run -memory` writes, byte for byte, plus a
// traces/ tree equal to WriteTraces' output for the same configuration.
// With -fidelity analytical there is no replay to trace, so it exits
// non-zero naming the fidelity and writes no traces.
func TestCLIRunTracesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := buildServeBinary(t, dir)
	topoPath := filepath.Join(dir, "tiny.csv")
	csv := "Layer, M, N, K,\nfc1, 96, 80, 200,\nfc2, 64, 48, 32,\nfc1_again, 96, 80, 200,\n"
	if err := os.WriteFile(topoPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(out string, args ...string) error {
		cmd := exec.Command(bin, append([]string{"run", "-topology", topoPath, "-memory", "-outdir", out}, args...)...)
		msg, err := cmd.CombinedOutput()
		if err != nil {
			return fmt.Errorf("%v: %s", err, msg)
		}
		return nil
	}
	plain, traced := filepath.Join(dir, "plain"), filepath.Join(dir, "traced")
	if err := run(plain); err != nil {
		t.Fatal(err)
	}
	if err := run(traced, "-traces"); err != nil {
		t.Fatal(err)
	}

	cfg, err := baseConfig("", "", true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := loadTopology(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "want")
	if _, err := scalesim.New(cfg).WriteTraces(context.Background(), topo, want); err != nil {
		t.Fatal(err)
	}
	wantTree := readTree(t, plain)
	traces := readTree(t, want)
	if len(traces) != 12 {
		t.Fatalf("WriteTraces wrote %d files, want 12", len(traces))
	}
	for name, data := range traces {
		wantTree[filepath.Join("traces", name)] = data
	}
	gotTree := readTree(t, traced)
	for name, data := range wantTree {
		if got, ok := gotTree[name]; !ok {
			t.Errorf("run -traces did not write %s", name)
		} else if !bytes.Equal(got, data) {
			t.Errorf("run -traces wrote a different %s", name)
		}
	}
	for name := range gotTree {
		if _, ok := wantTree[name]; !ok {
			t.Errorf("run -traces wrote unexpected %s", name)
		}
	}

	analytical := filepath.Join(dir, "analytical")
	err = run(analytical, "-traces", "-fidelity", "analytical")
	if err == nil || !strings.Contains(err.Error(), `fidelity "analytical"`) {
		t.Errorf("run -memory -traces -fidelity analytical: %v; want an error naming the fidelity", err)
	}
	if _, err := os.Stat(filepath.Join(analytical, "traces")); !os.IsNotExist(err) {
		t.Errorf("refused run left a traces directory: %v", err)
	}
}

// readTree returns every regular file under root by its relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
