package pg

// labelindex.go holds LabelIndex, the label-only endpoint bookkeeping
// of §4.6 that incremental discovery resolves a batch's foreign
// endpoints through: node ID → label set, for every node an earlier
// batch delivered. Stream readers, the serving writers and checkpoint
// images keep it.
//
// A resolver holds many nodes and few label sets, so the index is one
// keyed.Column from node ID to the number of an interned, sorted label
// set, plus the small table of those sets: about 12 bytes per node. It
// holds no properties and no edges; nothing in the type can.
//
// Clone is O(1) and copy-on-write, as the column's is: the table is
// only appended to, and a clone's table is cut to its length, so an
// append on either side never lands in the other's. Set numbers are
// the order an index first saw its sets in and stay in memory: two
// indexes number alike sets apart, so Diff and Apply compare labels,
// and the wire form (AppendLabelIndex, DecodeLabelIndex) holds each
// set's labels, the sets in ascending order.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"sort"

	"github.com/pghive/pghive/internal/keyed"
)

// Resolver answers the one question a batch asks of the nodes earlier
// batches delivered: a node's labels. *LabelIndex is the resolver every
// reader, writer and image keeps; *Graph answers it too, for a batch
// that resolves through a whole graph.
type Resolver interface {
	// NodeLabels returns the node's labels, sorted, and whether the
	// resolver holds the node. The caller must not modify them.
	NodeLabels(id ID) ([]string, bool)
}

// NodeLabels returns the node's labels, sorted, and whether g holds
// it. A nil graph holds nothing.
func (g *Graph) NodeLabels(id ID) ([]string, bool) {
	if g == nil {
		return nil, false
	}
	if n := g.Node(id); n != nil {
		return n.Labels, true
	}
	return nil, false
}

// LabelIndex maps node IDs to label sets. The zero value is empty. It
// is written by one goroutine at a time; a clone may be read on any
// goroutine while its original is written.
type LabelIndex struct {
	ids  keyed.Column[ID, int32] // node → set number
	sets []labelSet              // set number → set; only appended to
	// at finds a set's number by its key (setKey); a clone starts
	// without it and builds it at its first put of a set it lacks.
	at   map[string]int32
	key  []byte // setKey's scratch
	last int32  // the set intern returned last
}

// labelSet is one interned label set and its token (LabelToken).
type labelSet struct {
	labels []string // sorted; nil when empty
	token  string
}

// Len returns the number of nodes the index holds.
func (x *LabelIndex) Len() int { return x.ids.Len() }

// NodeLabels returns the node's labels, sorted, and whether the index
// holds it. The labels are shared; the caller must not modify them.
func (x *LabelIndex) NodeLabels(id ID) ([]string, bool) {
	if x == nil {
		return nil, false
	}
	s, ok := x.ids.Get(id)
	if !ok {
		return nil, false
	}
	return x.sets[s].labels, true
}

// NodeToken returns the token (LabelToken) of the node's label set,
// kept with the set, and whether the index holds the node with at
// least one label: what an endpoint resolves to.
func (x *LabelIndex) NodeToken(id ID) (string, bool) {
	if x == nil {
		return "", false
	}
	s, ok := x.ids.Get(id)
	if !ok || x.sets[s].labels == nil {
		return "", false
	}
	return x.sets[s].token, true
}

// Put adds the node with the labels unless the index holds it already:
// the first labels win. It reports whether it added the node. The
// labels are copied when their set is new.
func (x *LabelIndex) Put(id ID, labels []string) bool {
	if _, ok := x.ids.Get(id); ok {
		return false
	}
	x.ids.Set(id, x.intern(labels))
	return true
}

// Remove drops the node, returning the labels it held and whether it
// held it. The table keeps the node's set: the sets an index has seen
// are few, and a later put of the set finds it.
func (x *LabelIndex) Remove(id ID) ([]string, bool) {
	s, ok := x.ids.Get(id)
	if !ok {
		return nil, false
	}
	x.ids.Delete(id)
	return x.sets[s].labels, true
}

// All yields every node with its labels in ascending ID order.
func (x *LabelIndex) All() iter.Seq2[ID, []string] {
	return func(yield func(ID, []string) bool) {
		for id, s := range x.ids.All() {
			if !yield(id, x.sets[s].labels) {
				return
			}
		}
	}
}

// Clone returns an index that shares x's nodes and table. O(1). Writes
// on either side never reach the other.
func (x *LabelIndex) Clone() LabelIndex {
	return LabelIndex{ids: x.ids.Clone(), sets: x.sets[:len(x.sets):len(x.sets)]}
}

// intern returns the number of the label set, adding it to the table
// when the index has not seen it. Labels out of order are sorted on a
// copy first.
func (x *LabelIndex) intern(labels []string) int32 {
	if !slices.IsSorted(labels) {
		labels = slices.Clone(labels)
		sort.Strings(labels)
	}
	if int(x.last) < len(x.sets) && slices.Equal(x.sets[x.last].labels, labels) {
		return x.last // a run of one set, as a bulk load delivers it
	}
	if x.at == nil {
		x.at = make(map[string]int32, len(x.sets))
		for i, s := range x.sets {
			x.at[string(x.setKey(s.labels))] = int32(i)
		}
	}
	s, ok := x.at[string(x.setKey(labels))]
	if ok {
		x.last = s
		return s
	}
	s = int32(len(x.sets))
	if len(labels) == 0 {
		labels = nil
	} else {
		labels = slices.Clone(labels)
	}
	x.sets = append(x.sets, labelSet{labels, LabelToken(labels)})
	x.at[string(x.key)] = s
	x.last = s
	return s
}

// setKey spells a label set injectively (each label's length, then its
// bytes) into x's scratch.
func (x *LabelIndex) setKey(labels []string) []byte {
	x.key = x.key[:0]
	for _, l := range labels {
		x.key = binary.AppendUvarint(x.key, uint64(len(l)))
		x.key = append(x.key, l...)
	}
	return x.key
}

// DiffLabelIndex returns what turns base into next: the nodes next
// holds that base lacks or holds with other labels, and the IDs only
// base holds, both in ascending ID order. The puts share next's table.
// Like keyed.Diff it skips what the two share, so diffing an index
// against an earlier clone of itself costs what was written since.
func DiffLabelIndex(base, next *LabelIndex) (puts LabelIndex, dels keyed.IDs[ID]) {
	puts.ids, dels = keyed.DiffFunc(base.ids, next.ids, func(a, b int32) bool {
		return slices.Equal(base.sets[a].labels, next.sets[b].labels)
	})
	if puts.ids.Len() > 0 {
		puts.sets = next.sets[:len(next.sets):len(next.sets)]
	}
	return puts, dels
}

// Apply folds a diff onto x: the puts, each replacing the labels x
// holds for its node, then the dels. A del of a node x lacks changes
// nothing.
func (x *LabelIndex) Apply(puts *LabelIndex, dels []ID) {
	var in keyed.Column[ID, int32]
	if n := puts.Len(); n > 0 {
		keys, vals := make([]ID, 0, n), make([]int32, 0, n)
		num := make([]int32, len(puts.sets)) // puts' set number → x's, plus one
		for id, s := range puts.ids.All() {
			if num[s] == 0 {
				num[s] = x.intern(puts.sets[s].labels) + 1
			}
			keys, vals = append(keys, id), append(vals, num[s]-1)
		}
		in = keyed.FromRun(keys, vals)
	}
	x.ids.Apply(in, dels)
}

// IndexOf returns r as a label index: a clone of an index, O(1), or
// the nodes of a graph, indexed once. ok is false for any other
// Resolver. A nil resolver, a nil *Graph included, is empty.
func IndexOf(r Resolver) (x LabelIndex, ok bool) {
	switch r := r.(type) {
	case nil:
	case *LabelIndex:
		if r != nil {
			x = r.Clone()
		}
	case *Graph:
		if r != nil {
			keys, vals := make([]ID, len(r.nodes)), make([]int32, len(r.nodes))
			for i := range r.nodes {
				keys[i], vals[i] = r.nodes[i].ID, x.intern(r.nodes[i].Labels)
			}
			x.ids = keyed.FromRun(keys, vals) // a graph holds a node once
		}
	default:
		return x, false
	}
	return x, true
}

// AppendLabelIndex appends x's wire form: one {"labels":[...],"ids":IDs}
// group per label set, the sets in ascending order, the empty set's
// group without its labels and each group's IDs gap-coded
// (keyed.AppendIDs). It walks x in ID order through g, like
// keyed.AppendColumn.
func AppendLabelIndex(g *keyed.Grouper[ID], b []byte, x *LabelIndex) []byte {
	order := make([]int, len(x.sets)) // rank → set number
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(x.sets[a].labels, x.sets[b].labels) })
	rank := make([]int, len(order))
	for r, s := range order {
		rank[s] = r
	}
	b, _ = g.AppendGroups(b, len(rank), func(put func(ID, int)) {
		for id, s := range x.ids.All() {
			put(id, rank[s])
		}
	}, func(b []byte, r int) []byte {
		b = append(b, '{')
		if labels := x.sets[order[r]].labels; len(labels) > 0 {
			text, _ := json.Marshal(labels) // strings always marshal
			b = append(append(append(b, `"labels":`...), text...), ',')
		}
		return append(b, `"ids":`...)
	})
	return b // an index's IDs ascend
}

// MarshalJSON writes the wire form (AppendLabelIndex).
func (x LabelIndex) MarshalJSON() ([]byte, error) {
	var g keyed.Grouper[ID]
	return AppendLabelIndex(&g, make([]byte, 0, 2+4*x.Len()), &x), nil
}

// DecodeLabelIndex reads the wire form at the start of data, in the one
// spelling AppendLabelIndex writes, and reports how many bytes it spans;
// what follows is the caller's. It refuses a group that is empty, whose
// label set is not canonical or does not ascend from the one before, and
// a node in two groups. A first pass reads each group's labels and
// counts its nodes; a second merges the groups' nodes, each list
// ascending, into the index's column. The index's table is the groups.
func DecodeLabelIndex(data []byte) (LabelIndex, int, error) {
	r := &wireReader{data: data}
	var x LabelIndex
	var starts, ends []int // each group's ID list: where it starts in data, where its nodes end among all
	all := 0
	group := func() error {
		var labels []string
		if err := r.expect("{"); err != nil {
			return err
		}
		if r.accept(`"labels":`) {
			var err error
			if labels, err = r.labels(); err != nil {
				return err
			}
			if err := r.expect(","); err != nil {
				return err
			}
		}
		if err := r.expect(`"ids":`); err != nil {
			return err
		}
		starts = append(starts, r.pos)
		n, span, err := keyed.DecodeIDs(data[r.pos:], func(ID) error { return nil })
		r.pos += span
		if err != nil {
			return err
		}
		switch {
		case n == 0:
			return fmt.Errorf("resolver: group %q is empty", labels)
		case labels != nil && len(labels) == 0, !slices.IsSorted(labels):
			return fmt.Errorf("resolver: label set %q is not canonical", labels)
		case len(x.sets) > 0 && slices.Compare(x.sets[len(x.sets)-1].labels, labels) >= 0:
			return fmt.Errorf("resolver: label set %q after %q: sets must ascend", labels, x.sets[len(x.sets)-1].labels)
		}
		x.sets = append(x.sets, labelSet{labels, LabelToken(labels)})
		all += n
		ends = append(ends, all)
		return r.expect("}")
	}
	if err := r.expect("["); err != nil {
		return LabelIndex{}, 0, err
	}
	for !r.accept("]") {
		if len(starts) > 0 {
			if err := r.expect(","); err != nil {
				return LabelIndex{}, 0, err
			}
		}
		if err := group(); err != nil {
			return LabelIndex{}, 0, err
		}
	}
	keys, vals := make([]ID, 0, all), make([]int32, 0, all)
	for g, at := range starts {
		// The first pass read these bytes without a refusal.
		keyed.DecodeIDs(data[at:], func(id ID) error {
			keys, vals = append(keys, id), append(vals, int32(g))
			return nil
		})
	}
	ids, dup, ok := keyed.FromRuns(keys, vals, ends)
	switch {
	case !ok:
		return LabelIndex{}, 0, fmt.Errorf("resolver: node %d is in two label sets", dup)
	case ids.Len() == 0:
		return LabelIndex{}, r.pos, nil
	}
	x.ids = ids
	return x, r.pos, nil
}

// wireReader walks one index's wire form.
type wireReader struct {
	data []byte
	pos  int
}

func (r *wireReader) fail(why string) error {
	return fmt.Errorf("resolver: offset %d: %s", r.pos, why)
}

// accept consumes s if it is next.
func (r *wireReader) accept(s string) bool {
	if len(r.data)-r.pos < len(s) || string(r.data[r.pos:r.pos+len(s)]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// expect consumes s, or fails where it is not next.
func (r *wireReader) expect(s string) error {
	if !r.accept(s) {
		return r.fail(fmt.Sprintf("want %q", s))
	}
	return nil
}

// labels consumes a label array, which ends at the first ']' outside a
// string, and decodes it through encoding/json, which checks the rest.
// No whitespace may stand outside a string.
func (r *wireReader) labels() ([]string, error) {
	start := r.pos
	if err := r.expect("["); err != nil {
		return nil, err
	}
	for quoted := false; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; {
		case c == '"':
			quoted = !quoted
		case quoted:
			if c == '\\' {
				r.pos++
			}
		case c == ']':
			r.pos++
			var labels []string
			return labels, json.Unmarshal(r.data[start:r.pos], &labels)
		case c == ' ', c == '\t', c == '\n', c == '\r':
			return nil, r.fail("whitespace outside a string")
		}
	}
	return nil, r.fail("unterminated label list")
}
