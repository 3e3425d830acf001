package runfile

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/vfs"
)

const dir = "data"

func newFS(t *testing.T) *vfs.MemFS {
	t.Helper()
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return mem
}

// readFile returns the bytes of path on mem.
func readFile(t *testing.T, mem *vfs.MemFS, path string) []byte {
	t.Helper()
	f, err := vfs.Open(mem, path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunRoundTrip: WriteRun puts EncodeRun's bytes on disk, and they
// parse back to the payload under the entry it returned.
func TestRunRoundTrip(t *testing.T) {
	mem := newFS(t)
	payload := []byte(`{"version":1,"fromLSN":3,"toLSN":7}`)
	info, err := WriteRun(mem, dir, 3, 7, 2, payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != RunName(3, 7) || info.From != 3 || info.To != 7 || info.Tombstones != 2 {
		t.Fatalf("run info %+v", info)
	}
	data := readFile(t, mem, filepath.Join(dir, info.Name))
	if want, wantInfo := EncodeRun(3, 7, 2, payload); !bytes.Equal(data, want) || info != wantInfo {
		t.Fatalf("WriteRun wrote %q as %+v, EncodeRun gives %q as %+v", data, info, want, wantInfo)
	}
	if int64(len(data)) != info.Bytes {
		t.Fatalf("file is %d bytes, info says %d", len(data), info.Bytes)
	}
	got, err := ParseRun(info, data)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round-trip: %q", got)
	}
}

// TestRunRejectsDamage: every way a run file can be wrong — bit flip,
// truncation, a header too short to parse, the wrong file kind under
// the right name, or a stale file whose frame is internally valid but
// does not match the manifest's recorded CRC — fails the read loudly.
func TestRunRejectsDamage(t *testing.T) {
	payload := []byte(`{"version":1,"fromLSN":3,"toLSN":7}`)
	cases := []struct {
		name   string
		damage func(data []byte) []byte
		want   string
	}{
		{"bit flip", func(data []byte) []byte {
			data[len(data)-1] ^= 0xFF
			return data
		}, "CRC"},
		{"truncated", func(data []byte) []byte { return data[:len(data)-5] }, "frame says"},
		{"no header", func(data []byte) []byte { return data[:3] }, "missing frame header"},
		{"wrong magic", func([]byte) []byte { return frame(manifestMagic, payload) }, "magic"},
		{"stale file under the right name", func([]byte) []byte {
			return frame(runMagic, []byte(`{"other":true}`))
		}, "manifest says"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, info := EncodeRun(3, 7, 0, payload)
			_, err := ParseRun(info, tc.damage(data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("damaged run read: err=%v, want mention of %q", err, tc.want)
			}
		})
	}
}

func testManifest() *Manifest {
	return &Manifest{
		Version:      ManifestVersion,
		Seq:          4,
		Base:         "checkpoint-00000000000000000002.ckpt",
		BaseLSN:      2,
		BaseElements: 120,
		Runs: []RunInfo{
			{Name: RunName(2, 5), From: 2, To: 5, Bytes: 100, CRC: 0xdeadbeef, Tombstones: 1},
			{Name: RunName(5, 9), From: 5, To: 9, Bytes: 80, CRC: 0x1234, Tombstones: 2},
		},
		WALFloor: 5,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseManifest(ManifestName(m.Seq), data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest round-trip:\n got %+v\nwant %+v", got, m)
	}
	if got.Covered() != 9 {
		t.Fatalf("Covered() = %d, want 9", got.Covered())
	}
	if got.Tombstones() != 3 {
		t.Fatalf("Tombstones() = %d, want 3", got.Tombstones())
	}
	files := got.Files()
	for _, f := range []string{m.Base, RunName(2, 5), RunName(5, 9)} {
		if !files[f] {
			t.Fatalf("Files() is missing %s: %v", f, files)
		}
	}
}

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"valid", func(m *Manifest) {}, ""},
		{"bad version", func(m *Manifest) { m.Version = 99 }, "version"},
		{"chain gap", func(m *Manifest) { m.Runs[1].From = 6 }, "chain stands at"},
		{"empty span", func(m *Manifest) { m.Runs[1].From, m.Runs[1].To = 5, 5 }, "empty span"},
		{"misnamed run", func(m *Manifest) { m.Runs[0].Name = "run-x.run" }, "named"},
		{"misnamed base", func(m *Manifest) { m.Base = ManifestName(3) }, "not the base image"},
		{"base of another LSN", func(m *Manifest) { m.Base = BaseName(m.BaseLSN + 1) }, "not the base image"},
		{"empty base past LSN 0", func(m *Manifest) { m.Base = "" }, "not the base image"},
		{"floor above coverage", func(m *Manifest) { m.WALFloor = 10 }, "WAL floor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testManifest()
			tc.mutate(m)
			err := m.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: err=%v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestManifestSeqBinding: a manifest file renamed or copied under a
// different generation number is rejected — the embedded sequence is
// authoritative and must match the name it was committed under.
func TestManifestSeqBinding(t *testing.T) {
	m := testManifest()
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseManifest(ManifestName(m.Seq+3), data); err == nil {
		t.Fatal("ParseManifest accepted a manifest under the wrong generation name")
	}
}

// TestListManifests: a listing sorts into manifest generations and base
// images, newest first. A garbage file under a parseable manifest name
// still counts for sequence allocation (readers skip it when its frame
// fails), and an unparseable name is ignored entirely.
func TestListManifests(t *testing.T) {
	names := []string{
		ManifestName(1), ManifestName(7), "manifest-abc.mft", ManifestName(3),
		BaseName(2), BaseName(9), RunName(2, 5), "wal/" + ManifestName(8), "checkpoint-4.ckpt",
	}
	seqs, bases := Generations(names)
	if maxSeq := seqs[0]; maxSeq != 7 {
		t.Fatalf("maxSeq = %d, want 7", maxSeq)
	}
	if want := []uint64{7, 3, 1}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs = %v, want %v (newest generation first)", seqs, want)
	}
	if want := []uint64{9, 2}; !reflect.DeepEqual(bases, want) {
		t.Fatalf("bases = %v, want %v (newest first)", bases, want)
	}
}

func TestNameHelpers(t *testing.T) {
	if got := RunName(3, 12); got != "run-00000000000000000003-00000000000000000012.run" {
		t.Fatalf("RunName: %s", got)
	}
	if got := BaseName(12); got != "checkpoint-00000000000000000012.ckpt" {
		t.Fatalf("BaseName: %s", got)
	}
	if !IsRun(RunName(3, 12)) || IsRun(ManifestName(3)) || IsRun("checkpoint-3.ckpt") || IsRun("run-3-12.run") {
		t.Fatal("IsRun misclassifies")
	}
	if seq, ok := ParseManifestSeq(filepath.Join("a", "b", ManifestName(42))); !ok || seq != 42 {
		t.Fatalf("ParseManifestSeq: %d %v", seq, ok)
	}
	for _, bad := range []string{"manifest-x.mft", "manifest-1.txt", "run-1-2.run", "manifest-42.mft", "manifest-+0000000000000000042.mft"} {
		if _, ok := ParseManifestSeq(bad); ok {
			t.Fatalf("ParseManifestSeq accepted %q", bad)
		}
	}
	for _, good := range []string{ManifestName(1), RunName(1, 2), BaseName(0)} {
		if !IsArtifact(good) {
			t.Fatalf("IsArtifact refused %q", good)
		}
	}
	for _, bad := range []string{"wal", "checkpoint-1.ckpt", "checkpoint-00000000000000000001.ckpt-123.tmp", "d/" + BaseName(1), "..", ""} {
		if IsArtifact(bad) {
			t.Fatalf("IsArtifact accepted %q", bad)
		}
	}
}
