package keyed

// wire.go is the on-disk form of element-keyed collections. Element IDs
// are dense in practice and a collection holds many of them, so a list
// is written as its first ID followed by the gaps between neighbours,
// and a map onto a small int (a type ID, a degree) as one such list per
// value:
//
//	IDs{10000017, 10000018, 10000019, 10000022}  →  [10000017,1,1,3]
//	Map{7: 3, 9: 3, 12: 1}                       →  [{"v":1,"ids":[12]},{"v":3,"ids":[7,2]}]
//
// Exactly one spelling of each value decodes: no whitespace, no sign or
// leading zero on a gap, gaps above zero, no sum past int64, groups in
// ascending value order, none empty and no ID in two of them. So bytes
// the decoders accept re-encode to themselves.

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
)

// IDs is an ascending list of distinct IDs — a run's tombstones, the
// members of a group. Its JSON form is the first ID and then the gaps.
type IDs[K ~int64] []K

// Map maps IDs onto small ints — element assignments, degree tallies.
// Its JSON form is one {"v":value,"ids":IDs} group per value, in
// ascending value order.
type Map[K ~int64] map[K]int

// MarshalJSON writes the gap-coded list; it refuses a list that does not
// strictly ascend.
func (s IDs[K]) MarshalJSON() ([]byte, error) {
	return appendIDs(make([]byte, 0, 2+4*len(s)), s)
}

// UnmarshalJSON reads what MarshalJSON writes and nothing else.
func (s *IDs[K]) UnmarshalJSON(data []byte) (err error) {
	*s, err = parseIDs[K](data)
	return err
}

// MarshalJSON writes the value groups.
func (m Map[K]) MarshalJSON() ([]byte, error) {
	byValue := map[int][]K{}
	for id, v := range m {
		byValue[v] = append(byValue[v], id)
	}
	b := make([]byte, 0, 2+4*len(m)+24*len(byValue))
	b = append(b, '[')
	for i, v := range slices.Sorted(maps.Keys(byValue)) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"v":`...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, `,"ids":`...)
		ids := byValue[v]
		slices.Sort(ids)
		b, _ = appendIDs(b, ids) // distinct map keys, sorted: always ascends
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// UnmarshalJSON reads what MarshalJSON writes and nothing else.
func (m *Map[K]) UnmarshalJSON(data []byte) (err error) {
	*m, err = parseMap[K](data)
	return err
}

func appendIDs[K ~int64](b []byte, ids []K) ([]byte, error) {
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

// parseIDs decodes a gap-coded list; [] is nil.
func parseIDs[K ~int64](data []byte) (IDs[K], error) {
	r := &reader{data: data}
	var ids IDs[K]
	_, err := r.ids(func(id int64) error {
		ids = append(ids, K(id))
		return nil
	})
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// parseMap decodes value groups; [] is nil.
func parseMap[K ~int64](data []byte) (Map[K], error) {
	r := &reader{data: data}
	if err := r.expect("["); err != nil {
		return nil, err
	}
	var m Map[K]
	if !r.accept("]") {
		m = Map[K]{}
		for prev := int64(0); ; {
			if err := r.expect(`{"v":`); err != nil {
				return nil, err
			}
			v, err := r.int()
			if err != nil {
				return nil, err
			}
			if len(m) > 0 && v <= prev {
				return nil, r.fail(fmt.Sprintf("group %d after group %d: groups must ascend", v, prev))
			}
			if int64(int(v)) != v {
				return nil, r.fail(fmt.Sprintf("value %d overflows int", v))
			}
			prev = v
			if err := r.expect(`,"ids":`); err != nil {
				return nil, err
			}
			n, err := r.ids(func(id int64) error {
				if _, dup := m[K(id)]; dup {
					return r.fail(fmt.Sprintf("ID %d is in two groups", id))
				}
				m[K(id)] = int(v)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if n == 0 {
				return nil, r.fail(fmt.Sprintf("group %d is empty", v))
			}
			if err := r.expect("}"); err != nil {
				return nil, err
			}
			if r.accept("]") {
				break
			}
			if err := r.expect(","); err != nil {
				return nil, err
			}
		}
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return m, nil
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

func (r *reader) end() error {
	if r.pos != len(r.data) {
		return r.fail("trailing bytes")
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
