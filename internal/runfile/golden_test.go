package runfile

// Golden-file snapshot tests pinning the on-disk run and manifest
// formats byte for byte: the frame header (magic, CRC, length) and
// the manifest's JSON rendering are recovery-critical interfaces, so
// any drift must show up as a readable diff against checked-in files,
// not as a recovery failure on someone's data directory. Regenerate
// after an intentional format change with:
//
//	go test ./internal/runfile -run Golden -update

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/pghive/pghive/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, mem *vfs.MemFS, path, golden string) {
	t.Helper()
	f, err := vfs.Open(mem, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from %s:\n got: %q\nwant: %q", path, goldenPath, got, want)
	}
}

func TestGoldenRunFormat(t *testing.T) {
	mem := newFS(t)
	// A fixed payload: the byte layout under test is the frame, not
	// the (caller-owned) payload encoding.
	payload := []byte(`{"version":2,"fromLSN":2,"toLSN":5,"nodeUnassign":[7]}` + "\n")
	info, err := WriteRun(mem, dir, 2, 5, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, mem, filepath.Join(dir, info.Name), "run.golden")
}

func TestGoldenManifestFormat(t *testing.T) {
	mem := newFS(t)
	m := testManifest()
	if err := WriteManifest(mem, dir, m); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, mem, filepath.Join(dir, ManifestName(m.Seq)), "manifest.golden")
}
