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
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, got []byte, golden string) {
	t.Helper()
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
		t.Errorf("%s drifted:\n got: %q\nwant: %q", goldenPath, got, want)
	}
}

func TestGoldenRunFormat(t *testing.T) {
	// A fixed payload: the byte layout under test is the frame, not
	// the (caller-owned) payload encoding.
	payload := []byte(`{"version":2,"fromLSN":2,"toLSN":5,"nodeUnassign":[7]}` + "\n")
	data, _ := EncodeRun(2, 5, 1, payload)
	checkGolden(t, data, "run.golden")
}

func TestGoldenManifestFormat(t *testing.T) {
	data, err := EncodeManifest(testManifest())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, data, "manifest.golden")
}
