// Package vfs abstracts the filesystem underneath the durability
// stack (WAL segments, checkpoint images, atomic whole-file writes)
// so the same code can run against the real OS in production and
// against a hostile, fault-injected filesystem in tests.
//
// Three implementations ship with the package:
//
//   - OS: a passthrough to the os package — the production path.
//   - MemFS: an in-memory filesystem that models crash durability
//     precisely: file bytes survive a simulated crash only up to the
//     last successful Sync, and namespace changes (create, rename,
//     remove) survive only once the containing directory has been
//     SyncDir'd — the POSIX rules real disks hold callers to.
//   - InjectFS: a wrapper over any FS that fails chosen operations —
//     the Nth write, a short write, an fsync that persists the data
//     and then reports failure, a rename that dies after taking
//     effect — so durability code can be proven correct against
//     every disk fault a test can name.
//
// The interface is deliberately small: exactly the operations the
// WAL, the checkpoint writer, and the compactor need, nothing more.
package vfs

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is an open file handle. It is the subset of *os.File the
// durability stack uses; Sync is the durability point — bytes written
// but not synced are the bytes a crash may destroy.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes written bytes to stable storage.
	Sync() error
	// Truncate changes the file's size. Like any write, the change is
	// only crash-durable after a successful Sync.
	Truncate(size int64) error
}

// FS is a filesystem. Implementations must be safe for concurrent
// use. List-style access is provided by Glob (the only enumeration
// the durability stack performs).
type FS interface {
	// OpenFile opens name with os.OpenFile semantics (os.O_RDONLY,
	// os.O_WRONLY, os.O_CREATE, os.O_EXCL, os.O_TRUNC are honored).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir with os.CreateTemp
	// naming semantics (the final "*" in pattern is replaced).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically renames oldpath to newpath (same directory in
	// all durability-stack uses). Crash durability of the new name
	// requires a subsequent SyncDir.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate changes the size of the named file.
	Truncate(name string, size int64) error
	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)
	// MkdirAll creates a directory and its parents.
	MkdirAll(path string, perm fs.FileMode) error
	// Glob lists paths matching pattern (filepath.Glob semantics over
	// files; the durability stack only globs file names).
	Glob(pattern string) ([]string, error)
	// SyncDir makes the directory's entries (creates, renames,
	// removals) crash-durable.
	SyncDir(dir string) error
}

// Open opens name read-only.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// ReadFile reads the whole file name into one buffer sized from the
// open file, as os.ReadFile does.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := Open(fsys, name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(int(size) + bytes.MinRead)
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// OpenWrite opens the existing file name write-only, positioned at its
// start.
func OpenWrite(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_WRONLY, 0)
}

// CreateExcl creates name write-only and fails when it already exists.
func CreateExcl(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
}

// OrOS returns fsys, or the real OS filesystem when fsys is nil — the
// defaulting rule every Options struct with an FS field uses.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

// OS is the real operating-system filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Glob(pattern string) ([]string, error) {
	return filepath.Glob(pattern)
}

// SyncDir fsyncs the directory so renames and creates within it are
// durable. A failed directory fsync is tolerated here — some
// platforms and filesystems reject fsync on directories — but a
// failure to even open the directory is reported. Simulated
// filesystems (MemFS, InjectFS) report SyncDir failures for real,
// which is what lets tests prove the callers handle them.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Sync()
	return nil
}
