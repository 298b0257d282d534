package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperGoldens pins every experiment's output on the paper's default
// grid: each runner's CSV must match testdata/paper/<name>.csv byte for byte,
// so any change to the model or to an experiment's wiring shows up as a
// reviewed golden diff. table4 reports wall-clock time, so only its header
// and workload column are compared.
func TestPaperGoldens(t *testing.T) {
	for _, r := range allRunners() {
		t.Run(r.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "paper", r.name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := r.run(&got); err != nil {
				t.Fatal(err)
			}
			if r.name == "table4" {
				if g, w := timingFreeColumns(t, got.Bytes()), timingFreeColumns(t, want); g != w {
					t.Errorf("header and workload column:\ngot  %q\nwant %q", g, w)
				}
				return
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from the golden\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
			}
		})
	}
}

// timingFreeColumns renders a table4 CSV's header and first column.
func timingFreeColumns(t *testing.T, data []byte) string {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, rec := range recs {
		if i > 0 {
			rec = rec[:1]
		}
		b.WriteString(strings.Join(rec, ",") + "\n")
	}
	return b.String()
}

// TestCLIRejectsBadArguments drives the built binary: an unknown experiment
// name, a leftover positional argument or an unknown flag must exit non-zero
// before any output directory is created, while a valid selection writes its
// CSV.
func TestCLIRejectsBadArguments(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "fig7,bogus", "-outdir", "out"}, `unknown experiment "bogus"`},
		// flag stops at the first non-flag word: the flags after it must
		// not be dropped silently.
		{"stray argument", []string{"-exp", "fig7", "extra", "-outdir", "out"}, `unexpected argument "extra"`},
		// Every experiment runs its paper grid; there is no reduced one.
		{"no quick grid", []string{"-exp", "fig7", "-quick", "-outdir", "out"}, "flag provided but not defined: -quick"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			work := t.TempDir()
			cmd := exec.Command(bin, tt.args...)
			cmd.Dir = work
			out, err := cmd.CombinedOutput()
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("experiments %v: err = %v, want a non-zero exit; output: %s", tt.args, err, out)
			}
			if !strings.Contains(string(out), tt.want) {
				t.Errorf("experiments %v output %q does not contain %q", tt.args, out, tt.want)
			}
			if entries, _ := os.ReadDir(work); len(entries) > 0 {
				t.Errorf("experiments %v created %s", tt.args, entries[0].Name())
			}
		})
	}

	t.Run("valid selection", func(t *testing.T) {
		cmd := exec.Command(bin, "-exp", "fig7", "-outdir", "out")
		cmd.Dir = t.TempDir()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("experiments -exp fig7: %v\n%s", err, out)
		}
		got, err := os.ReadFile(filepath.Join(cmd.Dir, "out", "fig7.csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "paper", "fig7.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("fig7.csv differs from the golden")
		}
	})
}
