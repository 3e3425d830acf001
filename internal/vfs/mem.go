package vfs

// mem.go: an in-memory filesystem with an explicit crash-durability
// model. Every file has two byte images: the cache (what reads and
// the process see) and the synced image (what survives a crash).
// Writes and truncations touch only the cache; File.Sync copies the
// cache into the synced image. Likewise the namespace has two views:
// creates, renames, and removals take effect in the cache view
// immediately but survive a crash only after SyncDir commits the
// containing directory — the same contract POSIX gives fsync and
// directory fsync. Crash() discards everything uncommitted, exactly
// what a power loss does, so a test can run any workload, crash it,
// and reopen the surviving state.

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory FS with simulated crash semantics. The zero
// value is not usable; call NewMemFS.
type MemFS struct {
	mu sync.Mutex
	// dirs is the set of created directories. Directory creation is
	// modeled as immediately durable: recovery code re-creates its
	// directories anyway, and modeling dirent-of-dir durability buys
	// no extra test power.
	dirs map[string]bool
	// live is the cache namespace: path -> file node, as the running
	// process sees it.
	live map[string]*memNode
	// durable is the crash-surviving namespace: the entries committed
	// by the last SyncDir of each directory.
	durable map[string]*memNode
	tmpSeq  int
}

// memHeld witnesses a hold of a MemFS's mu — which guards every node's
// bytes too: only lock mints one, so what takes it cannot be reached
// without the mutex. A witness outlives its Unlock; keep it in the
// scope of the hold.
type memHeld struct{}

func (m *MemFS) lock() memHeld { m.mu.Lock(); return memHeld{} }

// memNode is one file's content: data is the cache, synced the bytes
// a crash preserves.
type memNode struct {
	data   []byte
	synced []byte
}

// NewMemFS returns an empty in-memory filesystem containing only the
// root directory ".".
func NewMemFS() *MemFS {
	return &MemFS{
		dirs:    map[string]bool{".": true},
		live:    map[string]*memNode{},
		durable: map[string]*memNode{},
	}
}

// Crash simulates a power loss: every file reverts to its last synced
// bytes, and every namespace change not committed by SyncDir is
// undone — unsynced creates vanish, unsynced renames revert to the
// old name, unsynced removals resurrect the file. Open handles become
// stale; reopen what survived.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live = make(map[string]*memNode, len(m.durable))
	for name, n := range m.durable {
		n.data = append([]byte(nil), n.synced...)
		m.live[name] = n
	}
}

// DurableNames lists the paths that would survive a crash right now,
// sorted — a test convenience.
func (m *MemFS) DurableNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.durable))
	for name := range m.durable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func memPath(name string) string { return filepath.Clean(name) }

func pathError(op, name string, err error) error {
	return &fs.PathError{Op: op, Path: name, Err: err}
}

func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memPath(name)
	node, exists := m.live[name]
	if flag&os.O_CREATE != 0 {
		if exists && flag&os.O_EXCL != 0 {
			return nil, pathError("open", name, fs.ErrExist)
		}
		if !exists {
			if dir := filepath.Dir(name); !m.dirs[dir] {
				return nil, pathError("open", name, fs.ErrNotExist)
			}
			node = &memNode{}
			m.live[name] = node
		}
	} else if !exists {
		return nil, pathError("open", name, fs.ErrNotExist)
	}
	if flag&os.O_TRUNC != 0 {
		node.data = nil
	}
	return &memFile{fs: m, node: node, name: name}, nil
}

func (m *MemFS) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	m.tmpSeq++
	seq := m.tmpSeq
	m.mu.Unlock()
	var name string
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		name = pattern[:i] + fmt.Sprintf("%09d", seq) + pattern[i+1:]
	} else {
		name = pattern + fmt.Sprintf("%09d", seq)
	}
	return m.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = memPath(oldpath), memPath(newpath)
	node, ok := m.live[oldpath]
	if !ok {
		return pathError("rename", oldpath, fs.ErrNotExist)
	}
	if dir := filepath.Dir(newpath); !m.dirs[dir] {
		return pathError("rename", newpath, fs.ErrNotExist)
	}
	delete(m.live, oldpath)
	m.live[newpath] = node
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memPath(name)
	if _, ok := m.live[name]; !ok {
		return pathError("remove", name, fs.ErrNotExist)
	}
	delete(m.live, name)
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	h := m.lock()
	defer m.mu.Unlock()
	name = memPath(name)
	node, ok := m.live[name]
	if !ok {
		return pathError("truncate", name, fs.ErrNotExist)
	}
	return node.truncate(h, size)
}

func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memPath(name)
	if node, ok := m.live[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(node.data))}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, pathError("stat", name, fs.ErrNotExist)
}

func (m *MemFS) MkdirAll(path string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = memPath(path)
	for p := path; ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

func (m *MemFS) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.live {
		ok, err := filepath.Match(memPath(pattern), name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// SyncDir commits the directory's namespace: every cache entry
// directly under dir becomes crash-durable, and durable entries the
// cache no longer holds are dropped. Commit is per-directory and
// all-or-nothing — a deliberate simplification (real disks may commit
// dirents individually) that still models the failure the durability
// stack must survive: a rename or create that a crash undoes.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = memPath(dir)
	if !m.dirs[dir] {
		return pathError("syncdir", dir, fs.ErrNotExist)
	}
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			if _, ok := m.live[name]; !ok {
				delete(m.durable, name)
			}
		}
	}
	for name, node := range m.live {
		if filepath.Dir(name) == dir {
			m.durable[name] = node
		}
	}
	return nil
}

// memFile is an open handle: a position over the node's cache bytes.
type memFile struct {
	fs     *MemFS
	node   *memNode
	name   string
	pos    int64
	closed bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, pathError("read", f.name, fs.ErrClosed)
	}
	if f.pos >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, pathError("read", f.name, fs.ErrClosed)
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, pathError("write", f.name, fs.ErrClosed)
	}
	end := f.pos + int64(len(p))
	if end > int64(len(f.node.data)) {
		grown := make([]byte, end)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	copy(f.node.data[f.pos:end], p)
	f.pos = end
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, pathError("seek", f.name, fs.ErrClosed)
	}
	switch whence {
	case io.SeekStart:
		f.pos = offset
	case io.SeekCurrent:
		f.pos += offset
	case io.SeekEnd:
		f.pos = int64(len(f.node.data)) + offset
	default:
		return 0, pathError("seek", f.name, fs.ErrInvalid)
	}
	if f.pos < 0 {
		f.pos = 0
		return 0, pathError("seek", f.name, fs.ErrInvalid)
	}
	return f.pos, nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return pathError("sync", f.name, fs.ErrClosed)
	}
	f.node.synced = append([]byte(nil), f.node.data...)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	h := f.fs.lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return pathError("truncate", f.name, fs.ErrClosed)
	}
	return f.node.truncate(h, size)
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return pathError("close", f.name, fs.ErrClosed)
	}
	f.closed = true
	return nil
}

func (n *memNode) truncate(_ memHeld, size int64) error {
	if size < 0 {
		return fs.ErrInvalid
	}
	if size <= int64(len(n.data)) {
		n.data = n.data[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, n.data)
	n.data = grown
	return nil
}

// memInfo is the fs.FileInfo of a MemFS entry.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
