package wal

import (
	"errors"
	"testing"

	"github.com/pghive/pghive/internal/vfs"
)

// TestRecordEndsInjectedFS pins the no-os-on-durable-paths rule that
// motivated moving RecordEnds onto vfs.FS: the open must flow through
// the injected filesystem, so a MemFS-only log is readable and a
// planned open fault is actually seen.
func TestRecordEndsInjectedFS(t *testing.T) {
	mem := vfs.NewMemFS()
	l, err := Open("wal", Options{FS: mem, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	appendN(t, l, n, 0)
	if err := l.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	sealed := l.Sealed()
	if len(sealed) != 1 {
		t.Fatalf("sealed segments = %d, want 1", len(sealed))
	}
	seg := sealed[0].Path
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The segment exists only inside mem: reading it through the
	// injected FS must work, and each record contributes one boundary.
	ends, err := RecordEnds(mem, seg)
	if err != nil {
		t.Fatalf("RecordEnds(mem): %v", err)
	}
	if len(ends) != n {
		t.Fatalf("RecordEnds(mem) = %d boundaries, want %d", len(ends), n)
	}

	// A nil FS means the real filesystem, where the segment does not
	// exist — proof RecordEnds is not quietly using os.Open.
	if _, err := RecordEnds(nil, seg); err == nil {
		t.Fatal("RecordEnds(nil) on a MemFS-only segment succeeded; the open bypassed the injected FS")
	}

	// And a planned open fault fires, so the fault injector can aim at
	// recovery-time reads too.
	inj := vfs.NewInjectFS(mem, vfs.NewPlan(vfs.Fault{Op: vfs.OpOpen, N: 1}))
	if _, err := RecordEnds(inj, seg); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("RecordEnds(inject) error = %v, want ErrInjected", err)
	}
}
