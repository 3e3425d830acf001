// Package runfile implements the on-disk layout of the durable
// layer's incremental checkpoints: immutable, checksummed delta run
// files plus a manifest that names the current generation — the base
// image, the ordered run chain on top of it, and the WAL floor the
// generation allows pruning to.
//
// The package owns only file-format concerns (framing, checksums,
// naming, manifest invariants); what a run's payload MEANS is the
// caller's business (the durable layer stores core.ImageDelta JSON).
// Both file kinds share one frame: a single header line carrying a
// magic tag, the payload's CRC-32C and its exact length, followed by
// the payload bytes. A torn, truncated, or bit-flipped file fails the
// frame check loudly instead of decoding to plausible garbage.
//
// Run files and manifests are immutable once renamed into place
// (vfs.WriteFileAtomic); a new manifest generation supersedes the old
// one by carrying a higher sequence number, and readers pick the
// newest manifest that parses AND frames clean — which is what lets
// recovery fall back a generation when the newest one was torn by a
// crash on a lying disk. All IO flows through vfs.FS so fault
// injection sees every operation.
package runfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/pghive/pghive/internal/vfs"
)

// ManifestVersion is the manifest format version.
const ManifestVersion = 1

// File-kind magic tags (the first token of the frame header line).
const (
	runMagic      = "PGHRUN1"
	manifestMagic = "PGHMFT1"
)

// Name shapes. LSNs are zero-padded so lexicographic order equals
// numeric order, like checkpoint images.
const (
	runSuffix      = ".run"
	manifestPrefix = "manifest-"
	manifestSuffix = ".mft"
)

// Glob patterns (relative to the data directory) matching the
// package's file kinds — for the durable layer's GC sweep.
const (
	RunGlobPattern      = "run-*" + runSuffix
	ManifestGlobPattern = manifestPrefix + "*" + manifestSuffix
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RunInfo describes one delta run from the manifest's point of view:
// the WAL span it covers, and enough redundancy (size, payload CRC,
// tombstone count) to verify the file body belongs to this manifest
// and to drive the fold heuristics without opening it.
type RunInfo struct {
	// Name is the run's file name (no directory).
	Name string `json:"name"`
	// From / To bound the covered WAL span (From exclusive, To
	// inclusive): the run applies to a state covering From and
	// advances it to To.
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	// Bytes is the full file size (frame + payload).
	Bytes int64 `json:"bytes"`
	// CRC is the payload's CRC-32C, duplicated from the frame so a
	// stale file under the right name cannot impersonate the run.
	CRC uint32 `json:"crc"`
	// Tombstones counts the deletions the run carries.
	Tombstones int `json:"tombstones"`
}

// Manifest names one consistent generation of the incremental
// checkpoint: base image + ordered runs = the state covering
// Covered(); WAL records above that replay on top at recovery.
type Manifest struct {
	Version int `json:"version"`
	// Seq orders generations; readers trust the highest sequence that
	// validates. Zero is reserved for the implicit pre-manifest state.
	Seq uint64 `json:"seq"`
	// Base is the base image's file name ("" = the empty state; the
	// options-derived image every chain starts from).
	Base string `json:"base,omitempty"`
	// BaseLSN is the WAL LSN the base image covers.
	BaseLSN uint64 `json:"baseLSN"`
	// BaseElements counts the elements (nodes + edges) in the base —
	// the denominator of the fold-triggering tombstone ratio.
	BaseElements int `json:"baseElements"`
	// Runs is the delta chain, contiguous from BaseLSN.
	Runs []RunInfo `json:"runs,omitempty"`
	// WALFloor is the highest LSN whose segments this generation
	// permits pruning. It deliberately trails Covered() by one
	// generation so recovery can fall back to the PREVIOUS manifest
	// and still find every WAL record above that older coverage.
	WALFloor uint64 `json:"walFloor"`
	// ShippedLSN is the shipping upload watermark at the time this
	// generation was written: every WAL record at or below it was
	// durable in the configured storage backend. Pruning must never
	// pass min(WALFloor, ShippedLSN) while shipping is enabled — a
	// segment deleted before it is uploaded is a record followers can
	// never fetch. Zero when shipping is disabled or nothing has
	// shipped; may exceed Covered() when sealed segments beyond the
	// fold have already been uploaded.
	ShippedLSN uint64 `json:"shippedLSN,omitempty"`
}

// Covered returns the WAL LSN the generation's base + runs reach.
func (m *Manifest) Covered() uint64 {
	if n := len(m.Runs); n > 0 {
		return m.Runs[n-1].To
	}
	return m.BaseLSN
}

// Tombstones sums the deletions carried by the run chain.
func (m *Manifest) Tombstones() int {
	n := 0
	for _, r := range m.Runs {
		n += r.Tombstones
	}
	return n
}

// Files returns the base-name set of every data file the generation
// references (the manifest file itself is named by Seq, not listed).
func (m *Manifest) Files() map[string]bool {
	files := make(map[string]bool, len(m.Runs)+1)
	if m.Base != "" {
		files[m.Base] = true
	}
	for _, r := range m.Runs {
		files[r.Name] = true
	}
	return files
}

// Validate checks the manifest's internal invariants: version, a base
// that is a plain file name in the manifest's directory, run naming,
// chain contiguity from the base LSN, and a WAL floor at or below the
// covered LSN.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("runfile: unsupported manifest version %d", m.Version)
	}
	if m.Base != "" && (m.Base == "." || m.Base == ".." || filepath.Base(m.Base) != m.Base) {
		return fmt.Errorf("runfile: manifest seq %d: base %q is not a file name", m.Seq, m.Base)
	}
	prev := m.BaseLSN
	for i, r := range m.Runs {
		if r.From != prev {
			return fmt.Errorf("runfile: manifest seq %d: run %d covers (%d, %d] but chain stands at %d", m.Seq, i, r.From, r.To, prev)
		}
		if r.To <= r.From {
			return fmt.Errorf("runfile: manifest seq %d: run %d has empty span (%d, %d]", m.Seq, i, r.From, r.To)
		}
		if r.Name != RunName(r.From, r.To) {
			return fmt.Errorf("runfile: manifest seq %d: run %d named %q, want %q", m.Seq, i, r.Name, RunName(r.From, r.To))
		}
		prev = r.To
	}
	if m.WALFloor > m.Covered() {
		return fmt.Errorf("runfile: manifest seq %d: WAL floor %d above covered LSN %d", m.Seq, m.WALFloor, m.Covered())
	}
	return nil
}

// RunName names the run covering WAL LSNs (from, to].
func RunName(from, to uint64) string {
	return fmt.Sprintf("run-%020d-%020d%s", from, to, runSuffix)
}

// ManifestName names the manifest of generation seq.
func ManifestName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", manifestPrefix, seq, manifestSuffix)
}

// ParseManifestSeq extracts the generation number from a manifest
// file name (base name or path).
func ParseManifestSeq(name string) (uint64, bool) {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, manifestPrefix) || !strings.HasSuffix(base, manifestSuffix) {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(base, manifestPrefix), manifestSuffix)
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// IsRun reports whether name (base name or path) is shaped like a run
// file.
func IsRun(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, "run-") && strings.HasSuffix(base, runSuffix)
}

// writeFramed stages magic + CRC + length + payload and atomically
// renames it to path.
func writeFramed(fsys vfs.FS, path, magic string, payload []byte) error {
	return vfs.WriteFileAtomic(fsys, path, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "%s crc=%08x len=%d\n", magic, crc32.Checksum(payload, crcTable), len(payload)); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
}

// readFramed reads path and verifies its frame, returning the payload
// and its (verified) CRC.
func readFramed(fsys vfs.FS, path, magic string) ([]byte, uint32, error) {
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return nil, 0, fmt.Errorf("runfile: %w", err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("runfile: %s: %w", path, err)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, 0, fmt.Errorf("runfile: %s: missing frame header", path)
	}
	var gotMagic string
	var crc uint32
	var length int
	if _, err := fmt.Sscanf(string(raw[:nl]), "%s crc=%x len=%d", &gotMagic, &crc, &length); err != nil {
		return nil, 0, fmt.Errorf("runfile: %s: malformed frame header: %w", path, err)
	}
	if gotMagic != magic {
		return nil, 0, fmt.Errorf("runfile: %s: magic %q, want %q", path, gotMagic, magic)
	}
	payload := raw[nl+1:]
	if len(payload) != length {
		return nil, 0, fmt.Errorf("runfile: %s: payload is %d bytes, frame says %d", path, len(payload), length)
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, 0, fmt.Errorf("runfile: %s: payload CRC %08x, frame says %08x", path, got, crc)
	}
	return payload, crc, nil
}

// frameSize returns the full on-disk size of a framed payload.
func frameSize(magic string, payload []byte) int64 {
	header := fmt.Sprintf("%s crc=%08x len=%d\n", magic, crc32.Checksum(payload, crcTable), len(payload))
	return int64(len(header) + len(payload))
}

// WriteRun atomically writes the run covering (from, to] into dir and
// returns its manifest entry. tombstones is the caller-counted number
// of deletions in the payload.
func WriteRun(fsys vfs.FS, dir string, from, to uint64, tombstones int, payload []byte) (RunInfo, error) {
	fsys = vfs.OrOS(fsys)
	name := RunName(from, to)
	if err := writeFramed(fsys, filepath.Join(dir, name), runMagic, payload); err != nil {
		return RunInfo{}, fmt.Errorf("runfile: write %s: %w", name, err)
	}
	return RunInfo{
		Name:       name,
		From:       from,
		To:         to,
		Bytes:      frameSize(runMagic, payload),
		CRC:        crc32.Checksum(payload, crcTable),
		Tombstones: tombstones,
	}, nil
}

// ReadRun reads and verifies the run info describes: frame intact,
// and CRC equal to the one the manifest recorded — so a leftover or
// half-superseded file under the expected name cannot be mistaken for
// the manifest's run.
func ReadRun(fsys vfs.FS, dir string, info RunInfo) ([]byte, error) {
	fsys = vfs.OrOS(fsys)
	payload, crc, err := readFramed(fsys, filepath.Join(dir, info.Name), runMagic)
	if err != nil {
		return nil, err
	}
	if crc != info.CRC {
		return nil, fmt.Errorf("runfile: %s: payload CRC %08x, manifest says %08x", info.Name, crc, info.CRC)
	}
	return payload, nil
}

// WriteManifest atomically writes m into dir under its generation
// name. The payload is compact JSON with a trailing newline inside the
// standard frame, so torn writes are detected by checksum, not by JSON
// parse luck. ReadManifest accepts an indented payload too.
func WriteManifest(fsys vfs.FS, dir string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("runfile: encode manifest: %w", err)
	}
	payload = append(payload, '\n')
	name := ManifestName(m.Seq)
	if err := writeFramed(vfs.OrOS(fsys), filepath.Join(dir, name), manifestMagic, payload); err != nil {
		return fmt.Errorf("runfile: write %s: %w", name, err)
	}
	return nil
}

// ReadManifest reads and validates one manifest file. The generation
// number embedded in the file must match the file's name — a manifest
// renamed or copied under the wrong sequence is rejected.
func ReadManifest(fsys vfs.FS, path string) (*Manifest, error) {
	fsys = vfs.OrOS(fsys)
	payload, _, err := readFramed(fsys, path, manifestMagic)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("runfile: %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("runfile: %s: %w", path, err)
	}
	if seq, ok := ParseManifestSeq(path); !ok || seq != m.Seq {
		return nil, fmt.Errorf("runfile: %s: file carries generation %d", path, m.Seq)
	}
	return &m, nil
}

// ListManifests returns the paths of every manifest-shaped file in
// dir, newest generation first, plus the highest generation number
// seen among them (valid or not) — the floor for allocating the next
// generation, so a corrupt lingering manifest can never outrank a
// fresh one.
func ListManifests(fsys vfs.FS, dir string) (paths []string, maxSeq uint64, err error) {
	fsys = vfs.OrOS(fsys)
	names, err := fsys.Glob(filepath.Join(dir, ManifestGlobPattern))
	if err != nil {
		return nil, 0, fmt.Errorf("runfile: %w", err)
	}
	type cand struct {
		path string
		seq  uint64
	}
	var cands []cand
	for _, n := range names {
		seq, ok := ParseManifestSeq(n)
		if !ok {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		cands = append(cands, cand{path: n, seq: seq})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq > cands[j].seq })
	for _, c := range cands {
		paths = append(paths, c.path)
	}
	return paths, maxSeq, nil
}
