package runfile

import (
	"bytes"
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
// EncodeManifest/ParseManifest round trip unchanged.
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
		raw, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not encode back: %v", err)
		}
		back, err := ParseManifest(name, raw)
		if err != nil {
			t.Fatalf("rewritten manifest does not read back: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("manifest round trip changed it:\n got %+v\nwant %+v", back, m)
		}
	})
}

// FuzzParseRun: a run file is hostile input too — recovery, the fold
// and a bootstrapping follower all read runs a manifest names. Arbitrary
// bytes, checked against a manifest entry with a fuzz-chosen CRC, must
// be refused or accepted without panicking and within the same
// allocation budget; an accepted payload carries exactly the recorded
// CRC and survives an EncodeRun/ParseRun round trip unchanged.
func FuzzParseRun(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "run.golden"))
	if err != nil {
		f.Fatal(err)
	}
	const goldenCRC = 0x09df11b6
	f.Add(golden, uint32(goldenCRC))
	f.Add(golden, uint32(goldenCRC+1))               // a stale run under the right name
	f.Add(golden[:len(golden)-3], uint32(goldenCRC)) // torn
	f.Add([]byte{}, uint32(0))
	f.Add([]byte(runMagic+" crc=00000000 len=0\n"), uint32(0))
	f.Add([]byte(runMagic+" crc=00000000 len=999999999999\n"), uint32(0))
	f.Add([]byte(runMagic+" crc=09DF11B6 len=+55\n"+string(golden[len(golden)-55:])), uint32(goldenCRC))
	f.Add(framed(`{}`), crc32.Checksum([]byte(`{}`), crcTable)) // a manifest frame

	f.Fuzz(func(t *testing.T, data []byte, crc uint32) {
		info := RunInfo{Name: RunName(2, 5), From: 2, To: 5, CRC: crc}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, err := ParseRun(info, data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); grew > limit {
			t.Fatalf("ParseRun of %d bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if got := crc32.Checksum(payload, crcTable); got != crc {
			t.Fatalf("accepted payload has CRC %08x, the manifest recorded %08x", got, crc)
		}
		raw, back := EncodeRun(info.From, info.To, 0, payload)
		if back.CRC != crc || back.Bytes != int64(len(raw)) {
			t.Fatalf("rewritten run records CRC %08x and %d bytes, file has CRC %08x and %d bytes", back.CRC, back.Bytes, crc, len(raw))
		}
		again, err := ParseRun(back, raw)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("rewritten run does not read back: %v", err)
		}
	})
}
