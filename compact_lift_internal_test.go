package pghive

// The oracle for compaction's fast path. A round no longer diffs two
// images: it lifts the delta from what the live writer recorded
// (core.Dirty). core.DiffImage — slow, obviously right, reading both
// images whole — stays the definition, and this file holds the fast
// path to it from outside: after every Compact of a generated write
// sequence, the run the round wrote must equal
// core.EncodeDelta(DiffImage(image before, image after)) byte for byte,
// with both images taken by the ordinary CaptureImage path, and the
// generation on disk must merge to the live image. A fold round's
// base image is held to the captured image the same way.
//
// Sequences are byte scripts (two bytes per step: operation, argument)
// so the property test — seeded random scripts over several option
// sets — and FuzzCompactLiftMatchesDiff share one interpreter.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/runfile"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

const liftDir = "data"

// liftScript interprets one script against a DurableService on a
// MemFS and checks every round it compacts.
type liftScript struct {
	t     testing.TB
	opts  Options
	dopts DurableOptions
	mem   *vfs.MemFS
	d     *DurableService
	// before is the image captured after the previous round (the empty
	// image before the first): the old side of the next round's diff.
	before *core.Image

	nextNode, nextEdge ID
	nodes              []ID     // ingested and not retracted
	live               []*Graph // ingested batches not yet retracted
	promised           []ID     // endpoints edges already name, nodes still to come
	keys               int

	seen *liftCoverage
}

// liftCoverage counts what the checked rounds of a set of scripts
// exercised, so a generator drifting away from the interesting cases
// fails the test instead of passing it vacuously.
type liftCoverage struct {
	runs, runsWithTombstones, runsWithSchemaPatch int
	folds                                         map[string]int
}

func newLiftScript(t testing.TB, opts Options, dopts DurableOptions, seen *liftCoverage) *liftScript {
	t.Helper()
	mem := vfs.NewMemFS()
	dopts.FS, dopts.NoSync = mem, true
	return newLiftScriptOn(t, opts, dopts, seen, mem)
}

// newLiftScriptOn is newLiftScript over a filesystem the caller chose:
// dopts.FS, which stores its files in mem (a fault injector around it,
// say).
func newLiftScriptOn(t testing.TB, opts Options, dopts DurableOptions, seen *liftCoverage, mem *vfs.MemFS) *liftScript {
	t.Helper()
	s := &liftScript{t: t, opts: opts, dopts: dopts, mem: mem, nextNode: 1, nextEdge: 1, seen: seen}
	s.dopts.DisableAutoCompact = true
	s.open()
	var err error
	if s.before, err = core.EmptyImage(opts); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *liftScript) open() {
	s.t.Helper()
	d, err := OpenDurable(liftDir, s.opts, s.dopts)
	if err != nil {
		s.t.Fatal(err)
	}
	s.d = d
}

// capture takes the live state's image the way a fold always has:
// CaptureImage under the write lock, at the writer's LSN.
func (s *liftScript) capture() *core.Image {
	s.t.Helper()
	s.d.w.mu.Lock()
	defer s.d.w.mu.Unlock()
	img, err := s.d.w.image()
	if err != nil {
		s.t.Fatal(err)
	}
	return img
}

func readMemFile(t testing.TB, fsys vfs.FS, path string) []byte {
	t.Helper()
	f, err := vfs.Open(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func encoded(t testing.TB, img *core.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.EncodeImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compact runs one round and holds what it wrote to the oracle.
func (s *liftScript) compact(step string) {
	s.t.Helper()
	prev := s.d.DurableStats()
	if err := s.d.Compact(); err != nil {
		s.t.Fatalf("%s: compact: %v", step, err)
	}
	if s.d.DurableStats().Rounds == prev.Rounds {
		return // nothing applied since the last round
	}
	s.checkRound(step, s.capture())
}

// checkRound holds the round that just completed to the oracle, after
// being the image of the state it covers.
func (s *liftScript) checkRound(step string, after *core.Image) {
	s.t.Helper()
	st := s.d.DurableStats()
	man := s.d.man
	if st.LastRound.Folded {
		base := readMemFile(s.t, s.mem, filepath.Join(liftDir, man.Base))
		if want := encoded(s.t, after); !bytes.Equal(base, want) {
			s.t.Fatalf("%s: folded base (%s) differs from the captured image\n got %s\nwant %s", step, st.LastRound.FoldReason, base, want)
		}
		s.seen.folds[st.LastRound.FoldReason]++
	} else {
		want, err := core.DiffImage(s.before, after)
		if err != nil {
			s.t.Fatal(err)
		}
		wantBytes, err := core.EncodeDelta(want)
		if err != nil {
			s.t.Fatal(err)
		}
		ri := man.Runs[len(man.Runs)-1]
		got, err := runfile.ParseRun(ri, readMemFile(s.t, s.mem, filepath.Join(liftDir, ri.Name)))
		if err != nil {
			s.t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			s.t.Fatalf("%s: lifted run differs from DiffImage(before, after)\n got %s\nwant %s", step, got, wantBytes)
		}
		if st.LastRound.Puts != want.Puts() || st.LastRound.Tombstones != want.Tombstones() {
			s.t.Fatalf("%s: LastRound reports %d puts / %d tombstones, the diff has %d / %d",
				step, st.LastRound.Puts, st.LastRound.Tombstones, want.Puts(), want.Tombstones())
		}
		s.seen.runs++
		if want.Tombstones() > 0 {
			s.seen.runsWithTombstones++
		}
		if want.SchemaPatch != nil {
			s.seen.runsWithSchemaPatch++
		}
	}
	merged, err := mergedImage(context.Background(), store.NewDir(s.mem, liftDir), s.opts, man)
	if err != nil {
		s.t.Fatalf("%s: merge generation %d: %v", step, man.Seq, err)
	}
	if got, want := encoded(s.t, merged), encoded(s.t, after); !bytes.Equal(got, want) {
		s.t.Fatalf("%s: generation %d merges to a different image than the live one\n got %s\nwant %s", step, man.Seq, got, want)
	}
	s.before = after
}

// reopen closes the service and recovers it: the recovered image must
// equal the live one, and the first round after recovery must lift
// exactly the replayed WAL tail.
func (s *liftScript) reopen(step string) {
	s.t.Helper()
	var live bytes.Buffer
	if err := s.d.WriteCheckpoint(&live); err != nil {
		s.t.Fatal(err)
	}
	if err := s.d.Close(); err != nil {
		s.t.Fatal(err)
	}
	s.open()
	var rec bytes.Buffer
	if err := s.d.WriteCheckpoint(&rec); err != nil {
		s.t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), rec.Bytes()) {
		s.t.Fatalf("%s: recovered image differs from the live one", step)
	}
}

func (s *liftScript) graph() *Graph {
	g := NewGraph()
	g.AllowDanglingEdges(true)
	return g
}

func (s *liftScript) ingest(step string, g *Graph, key string) {
	s.t.Helper()
	if _, _, err := s.d.IngestIdempotent(context.Background(), key, g); err != nil {
		s.t.Fatalf("%s: ingest: %v", step, err)
	}
	for _, n := range g.Nodes() {
		s.nodes = append(s.nodes, n.ID)
	}
	s.live = append(s.live, g)
}

func (s *liftScript) retract(step string, i int) {
	s.t.Helper()
	g := s.live[i]
	s.live = append(s.live[:i], s.live[i+1:]...)
	if _, _, err := s.d.RetractIdempotent(context.Background(), "", g); err != nil {
		s.t.Fatalf("%s: retract: %v", step, err)
	}
	gone := map[ID]bool{}
	for _, n := range g.Nodes() {
		gone[n.ID] = true
	}
	kept := s.nodes[:0]
	for _, id := range s.nodes {
		if !gone[id] {
			kept = append(kept, id)
		}
	}
	s.nodes = kept
}

var liftLabels = []string{"Person", "Org", "Post", "Tag"}
var liftRels = []string{"KNOWS", "WORKS_AT", "LIKES"}

// batch builds a small batch shaped by arg: labeled growth that merges
// into the label's type, with edges among its own and earlier nodes.
func (s *liftScript) batch(arg byte, label string, props map[string]Value) *Graph {
	g := s.graph()
	n := int(arg%5) + 1
	first := s.nextNode
	for i := 0; i < n; i++ {
		p := map[string]Value{}
		for k, v := range props {
			p[k] = v
		}
		p["seq"] = Int(int64(s.nextNode))
		var labels []string
		if label != "" {
			labels = []string{label}
		}
		if err := g.PutNode(s.nextNode, labels, p); err != nil {
			s.t.Fatal(err)
		}
		s.nextNode++
	}
	rel := liftRels[int(arg>>3)%len(liftRels)]
	for i := 0; i < n; i++ {
		src := first + ID(i)
		dst := first + ID((i+1)%n)
		if len(s.nodes) > 0 && i%2 == 1 {
			dst = s.nodes[int(arg)%len(s.nodes)] // an endpoint from an earlier write
		}
		if err := g.PutEdge(s.nextEdge, []string{rel}, src, dst, map[string]Value{"w": Int(int64(i))}); err != nil {
			s.t.Fatal(err)
		}
		s.nextEdge++
	}
	return g
}

// step interprets one (operation, argument) pair.
func (s *liftScript) step(i int, op, arg byte) {
	step := fmt.Sprintf("step %d (op %d arg %d)", i, op%10, arg)
	switch op % 10 {
	case 0: // labeled growth: merges into the label's existing type
		label := liftLabels[int(arg>>5)%len(liftLabels)]
		s.ingest(step, s.batch(arg, label, map[string]Value{"name": Str("n")}), "")
	case 1: // unlabeled, with a property set no labeled type has: ABSTRACT
		prop := fmt.Sprintf("p%d", arg%3)
		s.ingest(step, s.batch(arg, "", map[string]Value{prop: Str("x"), prop + "b": Int(1)}), "")
	case 2: // unlabeled, with Person's property set: merges into a labeled type
		s.ingest(step, s.batch(arg, "", map[string]Value{"name": Str("n")}), "")
	case 3: // churn inside one round: nets to nothing
		g := s.batch(arg, liftLabels[int(arg)%len(liftLabels)], map[string]Value{"name": Str("n")})
		s.ingest(step, g, "")
		s.retract(step, len(s.live)-1)
	case 4: // retract an earlier batch, possibly a type's last instances
		if len(s.live) > 0 {
			s.retract(step, int(arg)%len(s.live))
		}
	case 5: // edges first: their endpoints arrive in a later write
		g := s.graph()
		n := int(arg%3) + 1
		for i := 0; i < n; i++ {
			src, dst := s.nextNode, s.nextNode+1
			s.nextNode += 2
			s.promised = append(s.promised, src, dst)
			if err := g.PutEdge(s.nextEdge, []string{"REFERS"}, src, dst, nil); err != nil {
				s.t.Fatal(err)
			}
			s.nextEdge++
		}
		s.ingest(step, g, "")
	case 6: // the endpoints promised by case 5
		if len(s.promised) > 0 {
			g := s.graph()
			for _, id := range s.promised {
				if err := g.PutNode(id, []string{"Late"}, map[string]Value{"at": Int(int64(id))}); err != nil {
					s.t.Fatal(err)
				}
			}
			s.promised = nil
			s.ingest(step, g, "")
		}
	case 7: // a one-off label: the type lives until its batch is retracted
		s.ingest(step, s.batch(arg, fmt.Sprintf("Solo%d", arg%4), map[string]Value{"solo": Bool(true)}), "")
	case 8: // keyed write; a repeated key is acknowledged, not applied
		s.keys++
		key := fmt.Sprintf("k%d", s.keys-int(arg%2))
		g := s.batch(arg, "Person", map[string]Value{"name": Str("n")})
		_, replayed, err := s.d.IngestIdempotent(context.Background(), key, g)
		if err != nil {
			s.t.Fatalf("%s: keyed ingest: %v", step, err)
		}
		if !replayed {
			for _, n := range g.Nodes() {
				s.nodes = append(s.nodes, n.ID)
			}
			s.live = append(s.live, g)
		}
	case 9:
		if arg%4 == 0 {
			s.reopen(step)
		}
		s.compact(step)
	}
}

// run interprets the whole script, then compacts, reopens and compacts
// once more so every script ends on checked rounds.
func (s *liftScript) run(script []byte) {
	defer func() { s.d.Close() }()
	for i := 0; i+1 < len(script); i += 2 {
		s.step(i/2, script[i], script[i+1])
	}
	s.compact("final")
	s.step(len(script), 0, 7)
	s.reopen("final")
	s.compact("after reopen")
}

// liftConfigs are the option sets scripts run under: the defaults, a
// chain short enough that most scripts fold (by length and by
// tombstones), and MinHash (shape entries carry item sets).
var liftConfigs = []struct {
	name  string
	opts  Options
	dopts DurableOptions
}{
	{"defaults", Options{Seed: 5, Parallelism: 1}, DurableOptions{MaxRuns: 1 << 20, MaxTombstoneRatio: 1e9}},
	{"folding", Options{Seed: 5, Parallelism: 1}, DurableOptions{MaxRuns: 3, MaxTombstoneRatio: 0.2}},
	{"minhash", Options{Seed: 5, Parallelism: 1, Method: MinHash}, DurableOptions{MaxRuns: 1 << 20, MaxTombstoneRatio: 1e9}},
}

// TestCompactLiftMatchesDiffProperty: on seeded random scripts, every
// run a round lifts equals DiffImage of the captured images around it.
func TestCompactLiftMatchesDiffProperty(t *testing.T) {
	scripts := 40
	if testing.Short() {
		scripts = 8
	}
	for _, cfg := range liftConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			seen := &liftCoverage{folds: map[string]int{}}
			for seed := int64(1); seed <= int64(scripts); seed++ {
				rng := rand.New(rand.NewSource(seed))
				script := make([]byte, 2*(20+rng.Intn(40)))
				rng.Read(script)
				newLiftScript(t, cfg.opts, cfg.dopts, seen).run(script)
			}
			t.Logf("%d runs checked (%d with tombstones, %d with a schema patch), folds %v",
				seen.runs, seen.runsWithTombstones, seen.runsWithSchemaPatch, seen.folds)
			if seen.runsWithTombstones == 0 || seen.runsWithSchemaPatch == 0 {
				t.Error("no checked run carried tombstones, or none a schema patch: the generator no longer reaches them")
			}
			if cfg.name == "folding" && (seen.folds[FoldMaxRuns] == 0 || seen.folds[FoldTombstoneRatio] == 0) {
				t.Errorf("folds %v: want both max-runs and tombstone-ratio folds checked", seen.folds)
			}
		})
	}
}

// FuzzCompactLiftMatchesDiff lets the fuzzer write the scripts. The
// first byte picks the option set.
func FuzzCompactLiftMatchesDiff(f *testing.F) {
	f.Add([]byte{0, 0, 3, 9, 1, 4, 0, 9, 0})                          // grow, round, retract, round
	f.Add([]byte{1, 3, 7, 3, 2, 9, 1, 7, 5, 9, 1, 4, 0, 9, 1, 4, 0})  // churn, rounds, solo type dies, folds
	f.Add([]byte{2, 5, 2, 9, 1, 6, 0, 9, 1, 1, 4, 2, 9, 9, 0})        // edges before endpoints, abstract, merge, reopen
	f.Add([]byte{3, 8, 1, 8, 1, 8, 0, 9, 1, 0, 200, 4, 1, 9, 1})      // keyed writes and a repeated key
	f.Add([]byte{0, 0, 100, 9, 1, 3, 50, 3, 51, 9, 1, 4, 0, 4, 0, 9}) // churn nets out, then real tombstones
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 200 {
			return
		}
		cfg := liftConfigs[int(data[0])%len(liftConfigs)]
		newLiftScript(t, cfg.opts, cfg.dopts, &liftCoverage{folds: map[string]int{}}).run(data[1:])
	})
}
