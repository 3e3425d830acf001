package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// exercise runs a common conformance workload against any FS rooted
// at dir, checking os-compatible behavior.
func exercise(t *testing.T, fsys FS, dir string) {
	t.Helper()
	if err := fsys.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	path := filepath.Join(dir, "sub", "a.txt")
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// O_EXCL on an existing file must fail.
	if _, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("O_EXCL on existing: err = %v, want ErrExist", err)
	}
	// ReadAt sees the written bytes.
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil {
		t.Fatalf("readat: %v", err)
	}
	if string(buf) != "world" {
		t.Fatalf("readat = %q, want %q", buf, "world")
	}
	// Truncate then stat.
	if err := f.Truncate(5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if info, err := fsys.Stat(path); err != nil || info.Size() != 5 {
		t.Fatalf("stat after truncate: info=%v err=%v", info, err)
	}
	// Seek + read from the start.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatalf("seek: %v", err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("content = %q, want %q", got, "hello")
	}
	// ReadFile reads the whole file whatever the handle's position.
	if got, err := ReadFile(fsys, path); err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v; want %q", got, err, "hello")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Rename, glob, remove.
	path2 := filepath.Join(dir, "sub", "b.txt")
	if err := fsys.Rename(path, path2); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := fsys.SyncDir(filepath.Join(dir, "sub")); err != nil {
		t.Fatalf("syncdir: %v", err)
	}
	matches, err := fsys.Glob(filepath.Join(dir, "sub", "*.txt"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(matches) != 1 || matches[0] != path2 {
		t.Fatalf("glob = %v, want [%s]", matches, path2)
	}
	if _, err := fsys.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat old name: err = %v, want ErrNotExist", err)
	}
	// CreateTemp produces a distinct writable file.
	tmp, err := fsys.CreateTemp(dir, "stage-*.tmp")
	if err != nil {
		t.Fatalf("createtemp: %v", err)
	}
	if _, err := tmp.Write([]byte("x")); err != nil {
		t.Fatalf("tmp write: %v", err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatalf("tmp close: %v", err)
	}
	if err := fsys.Remove(tmp.Name()); err != nil {
		t.Fatalf("remove tmp: %v", err)
	}
	if err := fsys.Remove(path2); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := fsys.Stat(path2); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat removed: err = %v, want ErrNotExist", err)
	}
	if _, err := ReadFile(fsys, path2); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadFile of a removed file: err = %v, want ErrNotExist", err)
	}
}

func TestOSConformance(t *testing.T) {
	exercise(t, OS, t.TempDir())
}

func TestMemFSConformance(t *testing.T) {
	exercise(t, NewMemFS(), "root")
}

func readFile(t *testing.T, fsys FS, name string) []byte {
	t.Helper()
	f, err := Open(fsys, name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return b
}

func TestMemFSCrashRevertsUnsyncedBytes(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(" and lost"))
	m.Crash()
	if got := readFile(t, m, "a"); string(got) != "durable" {
		t.Fatalf("post-crash content = %q, want %q", got, "durable")
	}
}

func TestMemFSCrashUndoesUnsyncedNamespace(t *testing.T) {
	m := NewMemFS()
	// A created-but-never-SyncDir'd file vanishes at crash.
	f, _ := m.OpenFile("gone", os.O_RDWR|os.O_CREATE, 0o600)
	f.Write([]byte("x"))
	f.Sync()
	// A committed file survives; an uncommitted rename of it reverts.
	g, _ := m.OpenFile("old", os.O_RDWR|os.O_CREATE, 0o600)
	g.Write([]byte("y"))
	g.Sync()
	// Commit only "old" by syncing the dir before the other changes.
	if err := m.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("old", "new"); err != nil {
		t.Fatal(err)
	}
	h, _ := m.OpenFile("gone2", os.O_RDWR|os.O_CREATE, 0o600)
	h.Write([]byte("z"))
	h.Sync()
	m.Crash()
	if names := m.DurableNames(); len(names) != 1 || names[0] != "old" {
		t.Fatalf("durable names = %v, want [old]", names)
	}
	if _, err := m.Stat("new"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("renamed name survived crash: %v", err)
	}
	if got := readFile(t, m, "old"); string(got) != "y" {
		t.Fatalf("old content = %q, want %q", got, "y")
	}
}

func TestMemFSCrashHonorsSyncedRemove(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	f.Sync()
	m.SyncDir(".")
	if err := m.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.Stat("a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("committed removal undone by crash: %v", err)
	}
}

func TestInjectFailEarlySync(t *testing.T) {
	m := NewMemFS()
	plan := NewPlan(Fault{Op: OpSync, N: 1, Mode: FailEarly})
	ifs := NewInjectFS(m, plan)
	f, err := ifs.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("x"))
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first sync err = %v, want ErrInjected", err)
	}
	// FailEarly means the data was NOT persisted.
	m.SyncDir(".")
	m.Crash()
	if got := readFile(t, m, "a"); len(got) != 0 {
		t.Fatalf("failed sync persisted data: %q", got)
	}
	// The fault is spent: the next sync succeeds.
	f2, _ := ifs.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	f2.Write([]byte("y"))
	if err := f2.Sync(); err != nil {
		t.Fatalf("second sync: %v", err)
	}
}

func TestInjectFailLateSyncIsLyingDisk(t *testing.T) {
	m := NewMemFS()
	plan := NewPlan(Fault{Op: OpSync, N: 1, Mode: FailLate})
	ifs := NewInjectFS(m, plan)
	f, _ := ifs.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	f.Write([]byte("persisted"))
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync err = %v, want ErrInjected", err)
	}
	m.SyncDir(".")
	m.Crash()
	// FailLate: the error lied — the bytes are durable.
	if got := readFile(t, m, "a"); string(got) != "persisted" {
		t.Fatalf("lying sync did not persist: %q", got)
	}
}

func TestInjectShortWrite(t *testing.T) {
	m := NewMemFS()
	plan := NewPlan(Fault{Op: OpWrite, N: 2, Mode: ShortWrite})
	ifs := NewInjectFS(m, plan)
	f, _ := ifs.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	if n, err := f.Write([]byte("full")); n != 4 || err != nil {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 err = %v, want ErrInjected", err)
	}
	if n >= 8 || n == 0 {
		t.Fatalf("short write wrote n=%d of 8", n)
	}
	f.Sync()
	if got := readFile(t, m, "a"); string(got) != "full"+"abcdefgh"[:n] {
		t.Fatalf("content = %q after short write of %d", got, n)
	}
}

func TestInjectAnyOpCountsAll(t *testing.T) {
	m := NewMemFS()
	// Ops: open(1) write(2) sync(3) — fail the third op of any kind.
	plan := NewPlan(Fault{Op: AnyOp, N: 3, Mode: FailEarly})
	ifs := NewInjectFS(m, plan)
	f, err := ifs.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("third op err = %v, want ErrInjected", err)
	}
	if fired := plan.Fired(); len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	ops := plan.Ops()
	if ops[AnyOp] != 3 || ops[OpOpen] != 1 || ops[OpWrite] != 1 || ops[OpSync] != 1 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestInjectRenameFailLateTakesEffect(t *testing.T) {
	m := NewMemFS()
	plan := NewPlan(Fault{Op: OpRename, N: 1, Mode: FailLate})
	ifs := NewInjectFS(m, plan)
	f, _ := ifs.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	f.Write([]byte("x"))
	f.Sync()
	f.Close()
	if err := ifs.Rename("a", "b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename err = %v, want ErrInjected", err)
	}
	// FailLate: the rename happened despite the error.
	if _, err := m.Stat("b"); err != nil {
		t.Fatalf("late-failed rename did not take effect: %v", err)
	}
}

func TestWriteFileAtomicMemFS(t *testing.T) {
	m := NewMemFS()
	path := "img"
	if err := WriteFileAtomic(m, path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got := readFile(t, m, path); string(got) != "v1" {
		t.Fatalf("post-crash = %q, want v1", got)
	}
	// A failed rewrite leaves the old content intact, even post-crash.
	plan := NewPlan(Fault{Op: OpSync, N: 1, Mode: FailEarly})
	ifs := NewInjectFS(m, plan)
	err := WriteFileAtomic(ifs, path, func(w io.Writer) error {
		_, werr := w.Write([]byte("v2"))
		return werr
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("rewrite err = %v, want ErrInjected", err)
	}
	m.Crash()
	if got := readFile(t, m, path); string(got) != "v1" {
		t.Fatalf("failed rewrite corrupted target: %q", got)
	}
	if tmps, _ := m.Glob("*" + TmpSuffix); len(tmps) != 0 {
		t.Fatalf("staging leftovers: %v", tmps)
	}
}

func TestWriteFileAtomicOS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img")
	if err := WriteFileAtomic(OS, path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "v1" {
		t.Fatalf("content=%q err=%v", b, err)
	}
}
