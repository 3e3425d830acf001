package schema

import "slices"

// simindex.go is the set-similarity index behind passes 2 and 3 of
// Algorithm 2. A pass asks, for every unlabeled candidate, which schema
// type has the highest Jaccard similarity ≥ θ. Comparing the candidate
// against every type costs O(unlabeled × types) set constructions; the
// index encodes every type's signature once and answers a query from
// the posting lists of the candidate's own elements, so a pass costs
// O(types + unlabeled) allocations and only touches types that share
// an element with the candidate.
//
// An index lives for one pass of one Extract*Types call: nothing
// outside that call ever sees it, so Clone, Retract, Compact and
// patch-apply have no state to keep coherent.

// simIndex indexes the signatures of the types one pass merges into,
// addressed by their position in the schema's type slice.
type simIndex struct {
	// dict encodes signature elements — property keys as they are,
	// endpoint tokens under a "\x00src:" / "\x00dst:" prefix (edge
	// patterns include their endpoints, Def. 3.6; the prefix keeps a
	// token apart from a property key of the same name).
	dict map[string]int32
	// post maps an element to the positions of the types carrying it.
	post [][]int32
	// sigs holds each indexed position's signature as a sorted set.
	sigs [][]int32
	// firstEmpty is the lowest position whose signature is empty, -1
	// when there is none: two empty sets are identical (Jaccard 1) yet
	// share no posting, and among equals the first wins.
	firstEmpty int

	key     []byte  // scratch: a prefixed element, for the dict lookup
	sig     []int32 // scratch: the signature being encoded
	cnt     []int32 // scratch: per position, elements shared with the query
	touched []int32 // scratch: positions with cnt > 0
}

// sigType is what the similarity passes need of a node or edge type.
type sigType[T any] interface {
	core() *Type
	// absorb folds a candidate into the type (Lemmas 1 and 2).
	absorb(T)
	// endpoints returns the endpoint token sets that belong to the
	// signature beside the property keys; nil for node types, which
	// compare by property keys alone (§4.3).
	endpoints() (src, dst map[string]bool)
}

func (t *Type) core() *Type { return t }

func (t *NodeType) absorb(o *NodeType) { t.mergeCore(&o.Type) }
func (t *EdgeType) absorb(o *EdgeType) { t.mergeEdge(o) }

func (t *NodeType) endpoints() (src, dst map[string]bool) { return nil, nil }

// Edge types compare by property keys plus endpoint tokens: including
// the endpoints prevents structurally bare edges between different
// endpoint types from collapsing when partial label information is
// available.
func (t *EdgeType) endpoints() (src, dst map[string]bool) { return t.SrcTokens, t.DstTokens }

// newSimIndex indexes the types whose Abstract flag equals abstract.
func newSimIndex[T sigType[T]](types []T, abstract bool) *simIndex {
	ix := &simIndex{dict: map[string]int32{}, firstEmpty: -1}
	for pos, t := range types {
		if t.core().Abstract == abstract {
			ix.add(pos, encodeSig(ix, t))
		}
	}
	return ix
}

// encodeSig returns t's signature as a sorted set in the index's
// scratch buffer; it is valid until the next call.
func encodeSig[T sigType[T]](ix *simIndex, t T) []int32 {
	src, dst := t.endpoints()
	return ix.encode(t.core().Props, src, dst)
}

// encode dictionary-encodes a signature. IDs follow map iteration
// order, which nothing observes: a signature is sorted before use and
// ties between types are broken by schema position, never by ID.
func (ix *simIndex) encode(props map[string]*PropStat, src, dst map[string]bool) []int32 {
	sig := ix.sig[:0]
	for k := range props {
		sig = append(sig, ix.id("", k))
	}
	for k := range src {
		sig = append(sig, ix.id("\x00src:", k))
	}
	for k := range dst {
		sig = append(sig, ix.id("\x00dst:", k))
	}
	slices.Sort(sig)
	ix.sig = slices.Compact(sig)
	return ix.sig
}

// id returns the dictionary ID of prefix+k, assigning the next one to
// an unseen element. Only a new element allocates: the lookup goes
// through the scratch buffer.
func (ix *simIndex) id(prefix, k string) int32 {
	ix.key = append(append(ix.key[:0], prefix...), k...)
	id, ok := ix.dict[string(ix.key)]
	if !ok {
		id = int32(len(ix.post))
		ix.dict[string(ix.key)] = id
		ix.post = append(ix.post, nil)
	}
	return id
}

// add unions sig into the signature at pos — a type the pass just
// appended or one that just absorbed a candidate — and extends the
// postings by the elements that are new to it. Positions arrive in
// ascending order, so one past the end is a type not yet indexed.
func (ix *simIndex) add(pos int, sig []int32) {
	if pos >= len(ix.sigs) && len(sig) == 0 && ix.firstEmpty < 0 {
		// An empty type only ever matches, and so only ever absorbs,
		// empty candidates: it stays empty for the life of the index.
		ix.firstEmpty = pos
	}
	for len(ix.sigs) <= pos {
		ix.sigs = append(ix.sigs, nil)
		ix.cnt = append(ix.cnt, 0)
	}
	if ix.sigs[pos] == nil {
		// One allocation for a new type, not Insert's doublings.
		ix.sigs[pos] = make([]int32, 0, len(sig))
	}
	for _, e := range sig {
		if i, ok := slices.BinarySearch(ix.sigs[pos], e); !ok {
			ix.sigs[pos] = slices.Insert(ix.sigs[pos], i, e)
			ix.post[e] = append(ix.post[e], int32(pos))
		}
	}
}

// best returns the position of the indexed type with the highest
// Jaccard similarity to sig that is at least theta — on ties the
// lowest position, i.e. the first such type in schema order — or -1.
func (ix *simIndex) best(sig []int32, theta float64) int {
	if len(sig) == 0 {
		// Jaccard 1 with every empty type; only a NaN θ rejects that.
		if theta <= 1 {
			return ix.firstEmpty
		}
		return -1
	}
	// theta > 0, so only types sharing an element can qualify.
	for _, e := range sig {
		for _, p := range ix.post[e] {
			if ix.cnt[p] == 0 {
				ix.touched = append(ix.touched, p)
			}
			ix.cnt[p]++
		}
	}
	// Length filter: J ≤ min(|A|,|B|)/max(|A|,|B|), so outside
	// θ·|A| ≤ |B| ≤ |A|/θ a type cannot reach θ. The bound is relaxed
	// by far more than float rounding, so it never drops a type the
	// exact comparison below would admit.
	a, bound := len(sig), theta*(1-1e-9)
	best, bestJ := -1, theta
	for _, p := range ix.touched {
		inter := int(ix.cnt[p])
		ix.cnt[p] = 0
		b := len(ix.sigs[p])
		if float64(min(a, b)) < bound*float64(max(a, b)) {
			continue
		}
		j := float64(inter) / float64(a+b-inter)
		if j > bestJ || j == bestJ && (best < 0 || int(p) < best) {
			best, bestJ = int(p), j
		}
	}
	ix.touched = ix.touched[:0]
	return best
}
