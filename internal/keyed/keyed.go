// Package keyed holds element-keyed state — the element assignments
// and the per-node degree tallies — in one form from the pipeline to
// the disk.
//
// In memory it is a Column (column.go): a persistent, ID-sorted column
// of small ints that the pipeline, the checkpoint image and the delta
// run all hold, sharing leaves copy-on-write. Diff and Apply are the
// durability plane's put/tombstone rule for it: a run carries the
// entries to put and the keys to delete.
//
// On disk (wire.go) an ID list is its first ID and the gaps (IDs), and
// a column one such list per value, written in ID order through one
// Grouper whose ID scratch every collection reuses. Base images and
// runs of format generation 3 spell every assignment, degree tally and
// tombstone list that way.
package keyed
