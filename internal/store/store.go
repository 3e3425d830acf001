// Package store defines the pluggable storage backend the durable
// layer ships its artifacts through — WAL segments, delta runs, base
// images, and the manifests that name consistent generations — so a
// read-only follower can bootstrap and tail a leader without sharing
// its filesystem.
//
// Two implementations ship with the package:
//
//   - Dir: a local-directory backend over a vfs.FS, so fault-injection
//     tests (vfs.InjectFS) see every operation the shipper performs. A
//     data directory has the shipped layout, so the durable layer reads,
//     writes and collects its own checkpoints through a Dir, as a
//     follower reads a backend.
//   - HTTP: a client for the object endpoints a leader serves from its
//     mux (GET/PUT/DELETE /v1/objects/...), with bearer-token auth on
//     the mutating verbs; Handler is the matching server side over any
//     Backend.
//
// Both implementations honor the same atomic-publish contract: an
// object is either absent or complete — a reader can never observe a
// half-written object under its final name. That is the property the
// replication protocol leans on: a follower that can Get an object may
// trust its bytes (every artifact additionally carries its own CRC
// framing, so even a lying backend is detected, not believed).
package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound reports a Get or Delete of an object that does not
// exist. Implementations return it (possibly wrapped) for exactly this
// condition, so callers can distinguish "not shipped yet" from a real
// backend fault.
var ErrNotFound = errors.New("store: object not found")

// Backend is an object store holding the durable layer's shipped
// artifacts. Object names are slash-separated relative paths
// (ValidateName); values are opaque bytes. Implementations must be
// safe for concurrent use and must publish atomically: a concurrent or
// crashed Put never leaves a partial object visible under its final
// name — Get returns either a complete prior version or ErrNotFound.
type Backend interface {
	// Put atomically publishes data under name, replacing any existing
	// object. The data is not retained after the call.
	Put(ctx context.Context, name string, data []byte) error
	// Get returns the complete bytes of the named object, or
	// ErrNotFound.
	Get(ctx context.Context, name string) ([]byte, error)
	// List returns the names of every object starting with prefix, in
	// lexicographic order. A prefix selects either a whole directory
	// level ("wal/") or a name prefix within one ("manifest-").
	List(ctx context.Context, prefix string) ([]string, error)
	// Delete removes the named object; ErrNotFound if absent.
	Delete(ctx context.Context, name string) error
}

// ValidateName checks an object name: a non-empty, slash-separated
// relative path whose segments contain only [A-Za-z0-9._-] and are
// never ".", "..", or empty. The restriction keeps every name safe to
// map onto a filesystem path or an unescaped URL path segment — the
// two transports the package ships with.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty object name")
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("store: invalid object name %q", name)
		}
		for _, r := range seg {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			case r == '.', r == '_', r == '-':
			default:
				return fmt.Errorf("store: invalid object name %q", name)
			}
		}
	}
	return nil
}

// validatePrefix checks a List prefix: empty (list everything) or a
// valid name optionally ending in "/".
func validatePrefix(prefix string) error {
	if prefix == "" {
		return nil
	}
	return ValidateName(strings.TrimSuffix(prefix, "/"))
}
