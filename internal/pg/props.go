package pg

import (
	"fmt"
	"iter"
	"slices"
	"strings"
)

// Prop is one property of an element: a key and its value.
type Prop struct {
	Key string
	Val Value
}

// Props is an element's property set (Def. 3.1's partial property
// function): its properties sorted by key in byte order, no key twice.
// nil is the empty set. A property costs its 48 bytes and no more, so
// a three-property element's set is one 144-byte allocation where a
// map of the same three entries takes over 500.
//
// Build one with PropsOf from a map, or as a literal in key order;
// PutNode and PutEdge sort one that is out of order. A Props that is
// not sorted, or that repeats a key, breaks every reader of it.
type Props []Prop

// Len returns the number of properties.
func (ps Props) Len() int { return len(ps) }

// Get returns the value of key, or the zero (invalid) Value when the
// set does not hold key — as a map index does.
func (ps Props) Get(key string) Value {
	if i, ok := slices.BinarySearchFunc(ps, key, cmpPropKey); ok {
		return ps[i].Val
	}
	return Value{}
}

// All yields every property in key order.
func (ps Props) All() iter.Seq2[string, Value] {
	return func(yield func(string, Value) bool) {
		for _, p := range ps {
			if !yield(p.Key, p.Val) {
				return
			}
		}
	}
}

// keys returns the property keys in sorted order, or nil for the empty
// set.
func (ps Props) keys() []string {
	if len(ps) == 0 {
		return nil
	}
	ks := make([]string, len(ps))
	for i, p := range ps {
		ks[i] = p.Key
	}
	return ks
}

// PropsOf returns the map's properties as a Props, or nil when the map
// is empty. It is the boundary where hand-built elements (AddNode,
// AddEdge) enter.
func PropsOf(m map[string]Value) Props {
	if len(m) == 0 {
		return nil
	}
	ps := make(Props, 0, len(m))
	for k, v := range m {
		ps = append(ps, Prop{Key: k, Val: v})
	}
	slices.SortFunc(ps, func(a, b Prop) int { return strings.Compare(a.Key, b.Key) })
	return ps
}

// sortProps sorts ps by key in place and returns it as a Props, or an
// error naming a key that ps holds twice. It costs one pass when ps is
// already sorted, O(k log k) for k properties when it is not, and
// nothing to allocate.
func sortProps(ps []Prop) (Props, error) {
	if k, dup := sortUnique(ps, func(p Prop) string { return p.Key }); dup {
		return nil, fmt.Errorf("duplicate property %q", k)
	}
	return ps, nil
}

// sortUnique sorts s by key and reports a key that two of its entries
// share. Input in strictly ascending key order, the usual case, costs
// one pass.
func sortUnique[E any](s []E, key func(E) string) (string, bool) {
	i := 1
	for i < len(s) && key(s[i-1]) < key(s[i]) {
		i++
	}
	if i >= len(s) {
		return "", false
	}
	slices.SortFunc(s, func(a, b E) int { return strings.Compare(key(a), key(b)) })
	for i := 1; i < len(s); i++ {
		if k := key(s[i]); k == key(s[i-1]) {
			return k, true
		}
	}
	return "", false
}

func cmpPropKey(p Prop, key string) int { return strings.Compare(p.Key, key) }
