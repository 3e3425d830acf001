package runfile

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// framed wraps payload in a manifest frame with a valid CRC, so seeds
// reach the JSON and invariant checks behind the frame.
func framed(payload string) []byte {
	return []byte(fmt.Sprintf("%s crc=%08x len=%d\n%s", manifestMagic, crc32.Checksum([]byte(payload), crcTable), len(payload), payload))
}

// FuzzReadManifest: a manifest is hostile input to recovery and to a
// follower bootstrapping from shipped objects. Arbitrary file bytes
// must be refused or accepted without panicking and without
// allocating more than a constant factor of their length; an accepted
// manifest names only checkpoint-layout files and survives a
// WriteManifest/ParseManifest round trip unchanged.
func FuzzReadManifest(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "manifest.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	f.Add([]byte(manifestMagic + " crc=00000000 len=2\n{}"))
	f.Add([]byte(manifestMagic + " crc=00000000 len=999999999999\n{}"))
	f.Add([]byte(runMagic + " crc=00000000 len=0\n"))
	// The indented layout older releases wrote.
	f.Add(framed("{\n  \"version\": 1,\n  \"seq\": 4,\n  \"baseLSN\": 0,\n  \"baseElements\": 0,\n  \"walFloor\": 0\n}\n"))
	// Valid frames around hostile payloads: a wrong generation, an
	// unknown version, a chain gap, a misnamed run, a floor above
	// coverage, and base names that leave the directory.
	f.Add(framed(`{"version":1,"seq":5,"baseLSN":0,"baseElements":0,"walFloor":0}`))
	f.Add(framed(`{"version":2,"seq":4,"baseLSN":0,"baseElements":0,"walFloor":0}`))
	f.Add(framed(`{"version":1,"seq":4,"baseLSN":2,"runs":[{"name":"run-00000000000000000003-00000000000000000005.run","from":3,"to":5}],"walFloor":0}`))
	f.Add(framed(`{"version":1,"seq":4,"baseLSN":2,"runs":[{"name":"x","from":2,"to":5}],"walFloor":0}`))
	f.Add(framed(`{"version":1,"seq":4,"baseLSN":2,"walFloor":3}`))
	f.Add(framed(`{"version":1,"seq":4,"base":"../checkpoint-00000000000000000002.ckpt","baseLSN":2,"walFloor":0}`))
	f.Add(framed(`{"version":1,"seq":4,"base":"..","baseLSN":2,"walFloor":0}`))

	name := ManifestName(testManifest().Seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ParseManifest(name, data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); grew > limit {
			t.Fatalf("ParseManifest of %d bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		for file := range m.Files() {
			if !IsArtifact(file) {
				t.Fatalf("accepted manifest names %q, which is not a checkpoint-layout file", file)
			}
		}
		mem := newFS(t)
		if err := WriteManifest(mem, dir, m); err != nil {
			t.Fatalf("accepted manifest does not write back: %v", err)
		}
		back, err := ParseManifest(name, readFile(t, mem, filepath.Join(dir, name)))
		if err != nil {
			t.Fatalf("rewritten manifest does not read back: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("manifest round trip changed it:\n got %+v\nwant %+v", back, m)
		}
	})
}
