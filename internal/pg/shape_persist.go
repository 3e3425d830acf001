package pg

import (
	"bytes"
	"fmt"
	"sort"
)

// shape_persist.go externalizes a ShapeCache so a checkpointed
// incremental discovery resumes with a warm cache: the fingerprints,
// label tokens, and lazily built MinHash item sets survive the round
// trip, and a shape re-seen after restore costs one map lookup again
// instead of a rebuild. The cache is semantically a pure memo — shape
// tokens and item sets are functions of the fingerprinted element —
// so restoring it never changes discovery output, only its cost.

// ShapeEntry is one persisted shape: its injective fingerprint key
// (see appendNodeShapeKey / appendEdgeShapeKey) plus the cached
// derivations. Key is raw bytes; JSON encodes it as base64.
type ShapeEntry struct {
	Key   []byte   `json:"key"`
	Token string   `json:"token,omitempty"`
	Items []string `json:"items,omitempty"`
}

// Export returns every registered shape in deterministic (byte-wise
// fingerprint) order, so identical caches serialize identically.
func (c *ShapeCache) Export() []ShapeEntry {
	out := make([]ShapeEntry, 0, len(c.shapes))
	for k, sh := range c.shapes {
		out = append(out, ShapeEntry{Key: []byte(k), Token: sh.Token, Items: sh.Items})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

// Entry returns the persisted form of the shape registered under the
// fingerprint — one element of Export — or false when there is none.
func (c *ShapeCache) Entry(key string) (ShapeEntry, bool) {
	sh, ok := c.shapes[key]
	if !ok {
		return ShapeEntry{}, false
	}
	return ShapeEntry{Key: []byte(key), Token: sh.Token, Items: sh.Items}, true
}

// RestoreShapeCache rebuilds a cache from exported entries. Duplicate
// keys are rejected — a checkpoint cannot legitimately contain two
// shapes with the same injective fingerprint.
func RestoreShapeCache(entries []ShapeEntry) (*ShapeCache, error) {
	c := NewShapeCache()
	for _, e := range entries {
		k := string(e.Key)
		if _, dup := c.shapes[k]; dup {
			return nil, fmt.Errorf("pg: duplicate shape fingerprint %q in checkpoint", k)
		}
		c.shapes[k] = &Shape{Token: e.Token, Items: e.Items}
	}
	return c, nil
}
