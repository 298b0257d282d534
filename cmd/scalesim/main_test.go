package main

import (
	"os/exec"
	"strings"
	"testing"
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
