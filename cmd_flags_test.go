package repro_test

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCommandsRejectBadCounts runs each command with a count flag out of
// range. The command must refuse before running anything: exit status 2, a
// message naming the flag on stderr and nothing on stdout. Before, some of
// these panicked in the simulator, ran 3-node or 40-step traces while
// printing 0, or reported checks "ok", or "0/0 runs consistent", that had
// checked nothing. Skipped with -short (it compiles four commands).
func TestCommandsRejectBadCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("command flag test skipped with -short")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"crdt-sim", "acc-check", "proof-check", "conformance"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	cases := []struct {
		cmd  string
		args []string
		want string // a fragment of the refusal on stderr
	}{
		{"crdt-sim", []string{"-nodes", "-1"}, "-nodes and -steps must be at least 1"},
		{"crdt-sim", []string{"-nodes", "0"}, "-nodes and -steps must be at least 1"},
		{"crdt-sim", []string{"-chaos", "-nodes", "0"}, "-nodes and -steps must be at least 1"},
		{"crdt-sim", []string{"-steps", "0"}, "-nodes and -steps must be at least 1"},
		{"crdt-sim", []string{"-seeds", "-1"}, "-seeds must be at least 1"},
		{"crdt-sim", []string{"-seeds", "0"}, "-seeds must be at least 1"},
		{"crdt-sim", []string{"-chaos", "-seeds", "0"}, "-seeds must be at least 1"},
		{"crdt-sim", []string{"-chaos", "-ops", "-1"}, "must be non-negative"},
		{"crdt-sim", []string{"-chaos", "-ops", "0", "-seeds", "2"}, "chaos mode needs -ops of at least 1"},
		{"crdt-sim", []string{"-chaos", "-snapshot-every", "-1"}, "must be non-negative"},
		{"acc-check", []string{"-nodes", "0"}, "-nodes and -steps must be at least 1"},
		{"acc-check", []string{"-mode", "explore", "-nodes", "0"}, "-nodes and -steps must be at least 1"},
		{"acc-check", []string{"-mode", "exhaustive", "-steps", "0"}, "-nodes and -steps must be at least 1"},
		{"acc-check", []string{"-seeds", "-1"}, "-seeds must be at least 1"},
		{"acc-check", []string{"-algo", "counter", "-seeds", "0"}, "-seeds must be at least 1"},
		{"acc-check", []string{"-mode", "explore", "-seeds", "0"}, "-seeds must be at least 1"},
		{"proof-check", []string{"-algo", "counter", "-seeds", "-1"}, "must be non-negative"},
		{"proof-check", []string{"-algo", "counter", "-steps", "-1"}, "must be non-negative"},
		{"conformance", []string{"-algo", "counter", "-seeds", "-1"}, "must be non-negative"},
		{"conformance", []string{"-algo", "counter", "-steps", "-1"}, "must be non-negative"},
		{"conformance", []string{"-algo", "counter", "-chaos-seeds", "-1"}, "must be non-negative"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cmd+" "+strings.Join(tc.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, filepath.Join(bin, tc.cmd), tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s %v: err = %v, want exit status 2\nstderr: %s", tc.cmd, tc.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "panic") {
				t.Fatalf("%s %v: stderr = %q, want a refusal containing %q", tc.cmd, tc.args, stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("%s %v: printed %q before refusing", tc.cmd, tc.args, stdout.String())
			}
		})
	}
}
