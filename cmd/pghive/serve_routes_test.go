package main

// Golden-file snapshot pinning the serve route table: every role's
// method, path and admission-gate class, from the one table all four
// are built from. A route that changes role, gate class or existence
// shows up as a diff here. Regenerate after an intentional change with:
//
//	go test ./cmd/pghive -run Golden -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/admission"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestGoldenRouteTable(t *testing.T) {
	opts := pghive.Options{Seed: 1}
	backend := store.NewDir(vfs.NewMemFS(), "/objects")
	dur, err := pghive.OpenDurable("data", opts, pghive.DurableOptions{FS: vfs.NewMemFS(), DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	fol := pghive.NewFollower(opts, backend, pghive.FollowerOptions{})
	defer fol.Close()

	roles := []struct {
		name string
		t    target
	}{
		{"plain", servePlain(pghive.NewService(opts))},
		{"durable", serveDurable(dur, nil)},
		{"durable+ship-dir", serveDurable(dur, store.Handler(backend, "token"))},
		{"follower", serveFollower(fol)},
	}
	var table strings.Builder
	for _, role := range roles {
		fmt.Fprintf(&table, "# %s\n", role.name)
		for _, rt := range role.t.routes(0, admission.New(admission.Config{})) {
			method := rt.method
			if method == "" {
				method = "*"
			}
			fmt.Fprintf(&table, "%-7s  %-4s  %s\n", rt.gate, method, rt.path)
		}
	}

	goldenPath := filepath.Join("testdata", "routes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != string(want) {
		t.Errorf("serve route table drifted from %s:\n got:\n%s\nwant:\n%s", goldenPath, table.String(), want)
	}
}
