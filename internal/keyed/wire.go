package keyed

// wire.go is the on-disk form of element-keyed collections. Element IDs
// are dense in practice and a collection holds many of them, so a list
// is written as its first ID followed by the gaps between neighbours,
// and a column (an ID → small int map: a type ID, a degree) as one such
// list per value:
//
//	IDs{10000017, 10000018, 10000019, 10000022}  →  [10000017,1,1,3]
//	Column{7: 3, 9: 3, 12: 1}                    →  [{"v":1,"ids":[12]},{"v":3,"ids":[7,2]}]
//
// Exactly one spelling of each value decodes: no whitespace, no sign or
// leading zero on a gap, gaps above zero, no sum past int64, groups in
// ascending value order, none empty, no value past int32 and no ID in
// two of them. So bytes the decoders accept re-encode to themselves.
// The decoders (DecodeIDs, DecodeColumn) read a collection at the start
// of their input and say where it ends, for the image and run reader
// to go on from there.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// IDs is an ascending list of distinct IDs — a run's tombstones, the
// members of a group. Its JSON form is the first ID and then the gaps.
type IDs[K ~int64] []K

// MarshalJSON writes the gap-coded list; it refuses a list that does not
// strictly ascend.
func (s IDs[K]) MarshalJSON() ([]byte, error) {
	return AppendIDs(make([]byte, 0, 2+4*len(s)), s)
}

// MarshalJSON writes the value groups.
func (c Column[K, V]) MarshalJSON() ([]byte, error) {
	var g Grouper[K]
	return AppendColumn(&g, make([]byte, 0, 2+4*c.Len()), c), nil
}

// Grouper appends collections in their grouped form: one
// {head,"ids":IDs} object per group. It counts the items of each group,
// places every ID in one scratch slice at its group's offset and writes
// the groups from there, so a collection costs the scratch (which every
// collection a Grouper writes reuses) and its distinct values, never a
// slice per group.
type Grouper[K ~int64] struct {
	// Flush, when set, is handed the bytes appended so far after each
	// group and returns the buffer to go on with: how a writer streams a
	// collection to its destination in bounded memory.
	Flush func(b []byte) []byte

	ids  []K
	ends []int
	rank map[int32]int // AppendColumn: a value's group
	vals []int32       // AppendColumn: the distinct values, ascending
}

// AppendColumn appends c's JSON form: one {"v":value,"ids":IDs} group
// per distinct value, in ascending value order. It walks c in ID order,
// so each group's IDs ascend as they are placed.
func AppendColumn[K ~int64, V ~int32](g *Grouper[K], b []byte, c Column[K, V]) []byte {
	if g.rank == nil {
		g.rank = map[int32]int{}
	}
	clear(g.rank)
	g.vals = g.vals[:0]
	for _, v := range c.All() {
		if _, ok := g.rank[int32(v)]; !ok {
			g.rank[int32(v)] = 0
			g.vals = append(g.vals, int32(v))
		}
	}
	slices.Sort(g.vals)
	for i, v := range g.vals {
		g.rank[v] = i
	}
	b, _ = g.AppendGroups(b, len(g.vals), func(put func(K, int)) {
		for id, v := range c.All() {
			put(id, g.rank[int32(v)])
		}
	}, func(b []byte, i int) []byte {
		b = append(b, `{"v":`...)
		b = strconv.AppendInt(b, int64(g.vals[i]), 10)
		return append(b, `,"ids":`...)
	})
	return b // a column's keys ascend
}

// AppendGroups appends items sorted into groups as a JSON array: for
// each non-empty group in index order, head's opening of it, its IDs
// gap-coded and a closing brace. each hands put every item's ID and
// group index; it is called twice, to count and then to fill, and a
// group keeps its IDs in the order of the second call. It refuses a
// group whose IDs do not strictly ascend.
func (g *Grouper[K]) AppendGroups(b []byte, groups int, each func(put func(id K, group int)), head func(b []byte, group int) []byte) ([]byte, error) {
	g.ends = slices.Grow(g.ends[:0], groups+1)[:groups+1]
	clear(g.ends)
	n := 0
	each(func(_ K, i int) { g.ends[i+1]++; n++ })
	for i := range groups {
		g.ends[i+1] += g.ends[i]
	}
	if cap(g.ids) < n {
		g.ids = make([]K, n, max(n, 2*cap(g.ids)))
	}
	g.ids = g.ids[:n]
	// ends[i] is group i's fill position while filling, and its end after.
	each(func(id K, i int) { g.ids[g.ends[i]] = id; g.ends[i]++ })
	b = append(b, '[')
	start, first := 0, true
	for i := range groups {
		ids := g.ids[start:g.ends[i]]
		start = g.ends[i]
		if len(ids) == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		var err error
		if b, err = AppendIDs(head(b, i), ids); err != nil {
			return nil, err
		}
		b = append(b, '}')
		if g.Flush != nil {
			b = g.Flush(b)
		}
	}
	return append(b, ']'), nil
}

// AppendIDs appends the gap-coded list; it refuses a list that does not
// strictly ascend.
func AppendIDs[K ~int64](b []byte, ids []K) ([]byte, error) {
	b = append(b, '[')
	for i, id := range ids {
		if i == 0 {
			b = strconv.AppendInt(b, int64(id), 10)
			continue
		}
		if id <= ids[i-1] {
			return nil, fmt.Errorf("keyed: IDs do not ascend: %d after %d", id, ids[i-1])
		}
		b = append(b, ',')
		// The gap of two int64s fits a uint64 however far apart they are.
		b = strconv.AppendUint(b, uint64(id)-uint64(ids[i-1]), 10)
	}
	return append(b, ']'), nil
}

// DecodeIDs reads the gap-coded list at the start of data, handing each
// ID to emit in order. It reports how many IDs it read and how many
// bytes the list spans; what follows is the caller's.
func DecodeIDs[K ~int64](data []byte, emit func(K) error) (count, n int, err error) {
	r := &reader{data: data}
	count, err = r.ids(func(id int64) error { return emit(K(id)) })
	return count, r.pos, err
}

// DecodeColumn reads the value groups at the start of data into a
// column and reports how many bytes they span; what follows is the
// caller's. It reads them once to check their spelling and note where
// each group starts, and then merges the groups, each ascending, in ID
// order straight into the column's leaves, reading each group's gaps as
// the merge reaches them: no ID is held anywhere but in the column.
func DecodeColumn[K ~int64, V ~int32](data []byte) (Column[K, V], int, error) {
	r := &reader{data: data}
	var heads []head[K, V]
	n := 0
	if err := r.groups(func(id, v int64) error {
		if len(heads) == 0 || heads[len(heads)-1].val != V(v) {
			heads = append(heads, head[K, V]{key: K(id), val: V(v), at: r.pos})
		}
		n++
		return nil
	}); err != nil {
		return Column[K, V]{}, 0, err
	}
	c, dup, ok := mergeHeads(n, heads, func(h *head[K, V]) bool {
		g := reader{data: data, pos: h.at}
		if !g.accept(",") { // the group's "]"
			return false
		}
		gap, _ := g.uint() // read without a refusal once
		h.key, h.at = h.key+K(gap), g.pos
		return true
	})
	if !ok {
		return Column[K, V]{}, 0, fmt.Errorf("keyed: ID %d is in two groups", dup)
	}
	return c, r.pos, nil
}

// groups consumes value groups, handing put each ID with its group's
// value.
func (r *reader) groups(put func(id, v int64) error) error {
	if err := r.expect("["); err != nil {
		return err
	}
	if r.accept("]") {
		return nil
	}
	for first, prev := true, int64(0); ; first = false {
		if err := r.expect(`{"v":`); err != nil {
			return err
		}
		v, err := r.int()
		if err != nil {
			return err
		}
		if !first && v <= prev {
			return r.fail(fmt.Sprintf("group %d after group %d: groups must ascend", v, prev))
		}
		if int64(int32(v)) != v {
			return r.fail(fmt.Sprintf("value %d overflows int32", v))
		}
		prev = v
		if err := r.expect(`,"ids":`); err != nil {
			return err
		}
		n, err := r.ids(func(id int64) error { return put(id, v) })
		if err != nil {
			return err
		}
		if n == 0 {
			return r.fail(fmt.Sprintf("group %d is empty", v))
		}
		if err := r.expect("}"); err != nil {
			return err
		}
		if r.accept("]") {
			return nil
		}
		if err := r.expect(","); err != nil {
			return err
		}
	}
}

// reader walks one encoded collection. Only a refusal allocates.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) fail(why string) error {
	return fmt.Errorf("keyed: offset %d: %s", r.pos, why)
}

// accept consumes s if it is next.
func (r *reader) accept(s string) bool {
	if len(r.data)-r.pos < len(s) || string(r.data[r.pos:r.pos+len(s)]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// expect consumes s, or fails where it is not next.
func (r *reader) expect(s string) error {
	if !r.accept(s) {
		return r.fail(fmt.Sprintf("want %q", s))
	}
	return nil
}

// uint consumes a canonical unsigned decimal: no sign, no leading zero,
// at most 2^64-1.
func (r *reader) uint() (uint64, error) {
	start := r.pos
	var v uint64
	for ; r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9'; r.pos++ {
		d := uint64(r.data[r.pos] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, r.fail("number overflows uint64")
		}
		v = v*10 + d
	}
	switch n := r.pos - start; {
	case n == 0:
		return 0, r.fail("want a number")
	case n > 1 && r.data[start] == '0':
		return 0, r.fail("leading zero")
	}
	return v, nil
}

// int consumes a canonical int64: digits after an optional '-', which
// zero never carries.
func (r *reader) int() (int64, error) {
	neg := r.accept("-")
	u, err := r.uint()
	switch {
	case err != nil:
		return 0, err
	case neg && u == 0:
		return 0, r.fail("negative zero")
	case neg && u <= 1<<63:
		return int64(-u), nil // -2^63 wraps onto itself
	case !neg && u <= math.MaxInt64:
		return int64(u), nil
	}
	return 0, r.fail("number overflows int64")
}

// ids consumes one gap-coded list, handing each ID to emit in order,
// and reports how many it read.
func (r *reader) ids(emit func(int64) error) (int, error) {
	if err := r.expect("["); err != nil {
		return 0, err
	}
	if r.accept("]") {
		return 0, nil
	}
	var id int64
	for n := 0; ; n++ {
		if n == 0 {
			v, err := r.int()
			if err != nil {
				return n, err
			}
			id = v
		} else {
			gap, err := r.uint()
			switch {
			case err != nil:
				return n, err
			case gap == 0:
				return n, r.fail("gap 0: IDs must ascend")
			case gap > uint64(math.MaxInt64)-uint64(id): // the room above id, exact mod 2^64
				return n, r.fail(fmt.Sprintf("gap %d from %d overflows int64", gap, id))
			}
			id += int64(gap)
		}
		if err := emit(id); err != nil {
			return n, err
		}
		if r.accept("]") {
			return n + 1, nil
		}
		if err := r.expect(","); err != nil {
			return n, err
		}
	}
}
