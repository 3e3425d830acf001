package main

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

// TestUsageErrorsExit2 runs the built command: flag values and
// combinations that would otherwise be silently ignored end the
// process with exit status 2 and a message naming the flag — for
// `pghive` and `pghive serve` alike, since both decode the discovery
// flags through discoveryFlags. Every case fails before any input is
// read or any socket is opened.
func TestUsageErrorsExit2(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "pghive")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-dataset", "POLE", "-bucket", "2"}, "-bucket only applies with -tables"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-bucket", "2"}, "-bucket only applies with -tables"},
		{[]string{"-dataset", "POLE", "-method", "kmeans"}, `unknown method "kmeans"`},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-method", "kmeans"}, `unknown method "kmeans"`},
		{[]string{"-dataset", "POLE", "-batch-size", "5"}, "-batch-size only applies to -stream"},
	} {
		var stderr bytes.Buffer
		// The deadline only matters when a case regresses into a
		// running server.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, bin, c.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("pghive %s: err = %v, want exit status 2\n%s", strings.Join(c.args, " "), err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("pghive %s: stderr %q lacks %q", strings.Join(c.args, " "), stderr.String(), c.want)
		}
	}
}
