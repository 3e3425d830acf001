package store

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"github.com/pghive/pghive/internal/vfs"
)

// Dir is a Backend rooted in a local directory. Every operation flows
// through the supplied vfs.FS, so the fault-injection filesystems see
// each one; Put publishes via the temp-file + fsync + rename + directory
// fsync protocol (vfs.WriteFileAtomic), which is what makes the
// atomic-publish contract hold even across a crash — and is how the
// durable layer writes its own checkpoint files. Safe for
// concurrent use (to the extent the underlying FS is).
type Dir struct {
	fsys vfs.FS
	root string
}

// NewDir returns a Dir backend rooted at root on fsys (nil selects the
// real OS filesystem). The root directory is created lazily by the
// first Put.
func NewDir(fsys vfs.FS, root string) *Dir {
	return &Dir{fsys: vfs.OrOS(fsys), root: root}
}

// Put atomically publishes data under name: staged to a temp file,
// fsynced, renamed into place, directory fsynced. A crash at any point
// leaves either the old object or the new one, never a mixture.
func (d *Dir) Put(ctx context.Context, name string, data []byte) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	path := d.path(name)
	if err := d.fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return vfs.WriteFileAtomic(d.fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Get returns the complete bytes of the named object, or ErrNotFound.
func (d *Dir) Get(ctx context.Context, name string) ([]byte, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := vfs.ReadFile(d.fsys, d.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	return data, err
}

// List returns the object names under prefix in lexicographic order.
// Staging residue from in-flight atomic Puts is never listed, so a
// concurrent reader only ever sees published objects.
func (d *Dir) List(ctx context.Context, prefix string) ([]string, error) {
	if err := validatePrefix(prefix); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The namespace is at most one directory deep (e.g. "wal/<seg>"),
	// so two glob levels cover every object.
	patterns := []string{
		filepath.Join(d.root, filepath.FromSlash(prefix)+"*"),
	}
	if !strings.Contains(prefix, "/") {
		patterns = append(patterns, filepath.Join(d.root, filepath.FromSlash(prefix)+"*", "*"))
	}
	var names []string
	for _, pat := range patterns {
		matches, err := d.fsys.Glob(pat)
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			if strings.HasSuffix(m, vfs.TmpSuffix) {
				continue
			}
			if fi, err := d.fsys.Stat(m); err != nil || fi.IsDir() {
				continue
			}
			rel, err := filepath.Rel(d.root, m)
			if err != nil {
				continue
			}
			name := filepath.ToSlash(rel)
			if strings.HasPrefix(name, prefix) {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes the named object; ErrNotFound if absent.
func (d *Dir) Delete(ctx context.Context, name string) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := d.fsys.Remove(d.path(name)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return ErrNotFound
		}
		return err
	}
	return nil
}

func (d *Dir) path(name string) string {
	return filepath.Join(d.root, filepath.FromSlash(name))
}
