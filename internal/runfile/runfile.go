// Package runfile implements the on-disk layout of the durable
// layer's incremental checkpoints: immutable, checksummed delta run
// files plus a manifest that names the current generation — the base
// image, the ordered run chain on top of it, and the WAL floor the
// generation allows pruning to — and the names of all three file kinds.
//
// The package owns only file-format concerns (framing, checksums,
// naming, manifest invariants, which files a generation keeps); what a
// run's payload or a base image MEANS is the caller's business (the
// durable layer stores core.ImageDelta JSON and core.Image JSON). Runs
// and manifests share one frame: a single header line carrying a magic
// tag, the payload's CRC-32C and its exact length, followed by the
// payload bytes. A torn, truncated, or bit-flipped file fails the frame
// check loudly instead of decoding to plausible garbage.
//
// Writers and readers both deal in bytes: the encoders (EncodeRun,
// EncodeManifest) return a file's bytes and the parsers (ParseRun,
// ParseManifest) check them. The caller moves them to and from wherever
// the layout lives — a data directory through store.Dir, whose Put is
// the fault-injectable temp file + fsync + rename protocol, or a
// shipped object store — so one encoding is written and the same checks
// judge it everywhere. A new manifest generation supersedes the old
// one by carrying a higher sequence number, and readers pick the newest
// manifest that parses AND frames clean — which is what lets recovery
// fall back a generation when the newest one was torn by a crash on a
// lying disk.
package runfile

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

// ManifestVersion is the manifest format version.
const ManifestVersion = 1

// File-kind magic tags (the first token of the frame header line).
const (
	runMagic      = "PGHRUN1"
	manifestMagic = "PGHMFT1"
)

// Name shapes. Numbers are zero-padded to 20 digits so lexicographic
// order equals numeric order; the parsers accept only that spelling.
const (
	runPrefix      = "run-"
	runSuffix      = ".run"
	manifestPrefix = "manifest-"
	manifestSuffix = ".mft"
	basePrefix     = "checkpoint-"
	baseSuffix     = ".ckpt"
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
	// validates. Zero is reserved for a generation no manifest names:
	// the empty state, or a bare base image.
	Seq uint64 `json:"seq"`
	// Base is the base image's file name, BaseName(BaseLSN) ("" = the
	// empty state; the options-derived image every chain starts from).
	Base string `json:"base,omitempty"`
	// BaseLSN is the WAL LSN the base image covers.
	BaseLSN uint64 `json:"baseLSN"`
	// BaseElements counts the elements (nodes + edges) in the base —
	// the denominator of the fold-triggering tombstone ratio.
	BaseElements int `json:"baseElements"`
	// Runs is the delta chain, contiguous from BaseLSN.
	Runs []RunInfo `json:"runs,omitempty"`
	// WALFloor is the highest LSN whose segments this generation
	// permits dropping (see Floor). It deliberately trails Covered() by one
	// generation so recovery can fall back to the PREVIOUS manifest
	// and still find every WAL record above that older coverage.
	WALFloor uint64 `json:"walFloor"`
	// ShippedLSN is the shipping upload watermark at the time this
	// generation was written: every WAL record at or below it was
	// durable in the configured storage backend. The data directory's
	// collector never passes it while shipping is enabled — a
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

// Keep returns the files the given generations hold on to: each one's
// data files and its own manifest (nil generations are skipped). The
// durable layer's one collector keeps exactly this set for a store's
// current generation and the previous one, which recovery may fall
// back to, in a data directory and a shipping backend alike.
func Keep(gens ...*Manifest) map[string]bool {
	keep := make(map[string]bool)
	for _, m := range gens {
		if m == nil {
			continue
		}
		for f := range m.Files() {
			keep[f] = true
		}
		if m.Seq > 0 {
			keep[ManifestName(m.Seq)] = true
		}
	}
	return keep
}

// Floor returns the WAL floor of a store that keeps the generations man
// and prev (Keep): the highest LSN a replay from either of them never
// needs. It is man's WALFloor, lowered to prev's coverage when prev is
// older than the generation WALFloor protects — as in a backend whose
// shipping skipped a generation. The durable layer's collector drops the
// WAL segments that lie wholly at or below it (wal.Reclaimable).
func Floor(man, prev *Manifest) uint64 {
	if prev != nil {
		return min(man.WALFloor, prev.Covered())
	}
	return man.WALFloor
}

// Validate checks the manifest's internal invariants: version, a base
// named for the LSN it covers, run naming, chain contiguity from the
// base LSN, and a WAL floor at or below the covered LSN.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("runfile: unsupported manifest version %d", m.Version)
	}
	if m.Base != "" && m.Base != BaseName(m.BaseLSN) || m.Base == "" && m.BaseLSN != 0 {
		return fmt.Errorf("runfile: manifest seq %d: base %q is not the base image of LSN %d", m.Seq, m.Base, m.BaseLSN)
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
	return fmt.Sprintf("%s%020d-%020d%s", runPrefix, from, to, runSuffix)
}

// ManifestName names the manifest of generation seq.
func ManifestName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", manifestPrefix, seq, manifestSuffix)
}

// BaseName names the base image covering WAL LSNs up to lsn.
func BaseName(lsn uint64) string {
	return fmt.Sprintf("%s%020d%s", basePrefix, lsn, baseSuffix)
}

// number parses the one spelling the name functions give a number:
// exactly 20 decimal digits.
func number(s string) (uint64, bool) {
	if len(s) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

// between returns what name holds between prefix and suffix.
func between(name, prefix, suffix string) (string, bool) {
	s, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return "", false
	}
	return strings.CutSuffix(s, suffix)
}

// ParseManifestSeq extracts the generation number from a manifest
// file name (base name or path).
func ParseManifestSeq(name string) (uint64, bool) {
	s, ok := between(filepath.Base(name), manifestPrefix, manifestSuffix)
	if !ok {
		return 0, false
	}
	return number(s)
}

// parseBaseLSN extracts the covered LSN from a base image's file name.
func parseBaseLSN(name string) (uint64, bool) {
	s, ok := between(name, basePrefix, baseSuffix)
	if !ok {
		return 0, false
	}
	return number(s)
}

// IsRun reports whether name (base name or path) is a run file's.
func IsRun(name string) bool {
	span, ok := between(filepath.Base(name), runPrefix, runSuffix)
	from, to, ok2 := strings.Cut(span, "-")
	_, ok3 := number(from)
	_, ok4 := number(to)
	return ok && ok2 && ok3 && ok4
}

// IsArtifact reports whether name is a file of the checkpoint layout —
// a manifest, a run or a base image, as its name function spells it.
// Garbage collection removes only such files (foreign files in a shared
// directory or bucket are never touched), and a valid manifest names
// only such files.
func IsArtifact(name string) bool {
	if filepath.Base(name) != name {
		return false
	}
	_, manifest := ParseManifestSeq(name)
	_, base := parseBaseLSN(name)
	return manifest || base || IsRun(name)
}

// Generations sorts a listing of a data directory or a backend into the
// generation numbers of its manifests and the LSNs of its base images,
// each newest first; every other name is ignored. seqs[0] is the
// highest generation number present, valid or not — the floor for
// allocating the next one, so a corrupt lingering manifest can never
// outrank a fresh one.
func Generations(names []string) (seqs, bases []uint64) {
	for _, n := range names {
		if filepath.Base(n) != n {
			continue
		}
		if seq, ok := ParseManifestSeq(n); ok {
			seqs = append(seqs, seq)
		} else if lsn, ok := parseBaseLSN(n); ok {
			bases = append(bases, lsn)
		}
	}
	newestFirst := func(a, b uint64) int { return cmp.Compare(b, a) }
	slices.SortFunc(seqs, newestFirst)
	slices.SortFunc(bases, newestFirst)
	return seqs, bases
}

// frame returns the file holding payload: a header line of magic, the
// payload's CRC-32C and its length, then the payload.
func frame(magic string, payload []byte) []byte {
	header := fmt.Sprintf("%s crc=%08x len=%d\n", magic, crc32.Checksum(payload, crcTable), len(payload))
	return append([]byte(header), payload...)
}

// parseFramed verifies the frame of the file name holds raw, returning
// the payload and its (verified) CRC.
func parseFramed(name, magic string, raw []byte) ([]byte, uint32, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, 0, fmt.Errorf("runfile: %s: missing frame header", name)
	}
	var gotMagic string
	var crc uint32
	var length int
	if _, err := fmt.Sscanf(string(raw[:nl]), "%s crc=%x len=%d", &gotMagic, &crc, &length); err != nil {
		return nil, 0, fmt.Errorf("runfile: %s: malformed frame header: %w", name, err)
	}
	if gotMagic != magic {
		return nil, 0, fmt.Errorf("runfile: %s: magic %q, want %q", name, gotMagic, magic)
	}
	payload := raw[nl+1:]
	if len(payload) != length {
		return nil, 0, fmt.Errorf("runfile: %s: payload is %d bytes, frame says %d", name, len(payload), length)
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, 0, fmt.Errorf("runfile: %s: payload CRC %08x, frame says %08x", name, got, crc)
	}
	return payload, crc, nil
}

// EncodeRun frames payload as the run covering (from, to] and returns
// the file's bytes and its manifest entry. tombstones is the
// caller-counted number of deletions in the payload.
func EncodeRun(from, to uint64, tombstones int, payload []byte) ([]byte, RunInfo) {
	data := frame(runMagic, payload)
	return data, RunInfo{
		Name:       RunName(from, to),
		From:       from,
		To:         to,
		Bytes:      int64(len(data)),
		CRC:        crc32.Checksum(payload, crcTable),
		Tombstones: tombstones,
	}
}

// WriteRun atomically writes the run covering (from, to] into dir on
// fsys — EncodeRun's bytes through store.Dir.Put, the durable layer's
// own write path — and returns its manifest entry.
func WriteRun(fsys vfs.FS, dir string, from, to uint64, tombstones int, payload []byte) (RunInfo, error) {
	data, info := EncodeRun(from, to, tombstones, payload)
	if err := store.NewDir(fsys, dir).Put(context.Background(), info.Name, data); err != nil {
		return RunInfo{}, fmt.Errorf("runfile: write %s: %w", info.Name, err)
	}
	return info, nil
}

// ParseRun verifies the bytes of the run info describes and returns
// its payload: frame intact, and CRC equal to the one the manifest
// recorded — so a leftover or half-superseded file under the expected
// name cannot be mistaken for the manifest's run.
func ParseRun(info RunInfo, data []byte) ([]byte, error) {
	payload, crc, err := parseFramed(info.Name, runMagic, data)
	if err != nil {
		return nil, err
	}
	if crc != info.CRC {
		return nil, fmt.Errorf("runfile: %s: payload CRC %08x, manifest says %08x", info.Name, crc, info.CRC)
	}
	return payload, nil
}

// EncodeManifest returns the bytes of m's file, ManifestName(m.Seq):
// compact JSON with a trailing newline inside the standard frame, so
// torn writes are detected by checksum, not by JSON parse luck.
// ParseManifest accepts an indented payload too.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("runfile: encode manifest: %w", err)
	}
	return frame(manifestMagic, append(payload, '\n')), nil
}

// ParseManifest parses and validates the bytes of the manifest file
// called name. The generation number embedded in the file must match
// the name — a manifest renamed or copied under the wrong sequence is
// rejected.
func ParseManifest(name string, data []byte) (*Manifest, error) {
	payload, _, err := parseFramed(name, manifestMagic, data)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("runfile: %s: %w", name, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("runfile: %s: %w", name, err)
	}
	if seq, ok := ParseManifestSeq(name); !ok || seq != m.Seq {
		return nil, fmt.Errorf("runfile: %s: file carries generation %d", name, m.Seq)
	}
	return &m, nil
}
