package pghive

// White-box tests of writer.submit, the one commit path: the caller that
// gets the write lock commits the group waiting behind it. A gated group
// step parks the holder mid-group, and parkedWriters reads the goroutine
// table to know when every writer under test is waiting in LockContext,
// so no verdict rests on a sleep.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedStep is a group step that records every group it is handed and
// answers each request with the group's result, without looking at any
// request's context. Its first group waits for release.
type gatedStep struct {
	entered chan struct{} // closed when the first group arrives
	release chan struct{} // closed by the test to let the first group finish

	mu     sync.Mutex
	groups [][]*commitReq
}

func newGatedWriter(t *testing.T) (*writer, *gatedStep) {
	t.Helper()
	w, err := newWriter(Options{Seed: 1, Parallelism: 1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &gatedStep{entered: make(chan struct{}), release: make(chan struct{})}
	w.commits, w.commit = make(chan *commitReq), s.step
	return w, s
}

// step answers every request of a group with the same BatchTiming,
// whose Index is the group's size.
func (s *gatedStep) step(_ writeHeld, group []*commitReq) {
	s.mu.Lock()
	s.groups = append(s.groups, group)
	first := len(s.groups) == 1
	s.mu.Unlock()
	if first {
		close(s.entered)
		<-s.release
	}
	for _, r := range group {
		r.res <- commitRes{bt: BatchTiming{Index: len(group)}}
	}
}

func (s *gatedStep) sizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n []int
	for _, g := range s.groups {
		n = append(n, len(g))
	}
	return n
}

// parkedWriters waits until exactly n goroutines are parked in
// writeLock.LockContext.
func parkedWriters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(30 * time.Second)
	for {
		for {
			m := runtime.Stack(buf, true)
			if m < len(buf) {
				buf = buf[:m]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		got := strings.Count(string(buf), "pghive.writeLock.LockContext(")
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d writers parked in LockContext, want %d", got, n)
		}
		buf = buf[:cap(buf)]
		runtime.Gosched()
	}
}

// submitAll starts one submit per context and returns a channel that
// yields each answer.
func submitAll(w *writer, ctxs []context.Context) <-chan commitRes {
	out := make(chan commitRes, len(ctxs))
	for _, ctx := range ctxs {
		go func() { out <- w.submit(ctx, &commitReq{}) }()
	}
	return out
}

// holdFirstGroup submits one write that becomes the holder of the first
// group and parks in the gated step, with the lock held.
func holdFirstGroup(t *testing.T, w *writer, s *gatedStep) <-chan commitRes {
	t.Helper()
	first := submitAll(w, []context.Context{context.Background()})
	<-s.entered
	return first
}

// A holder whose context is cancelled while its group commits still
// answers every request it claimed with the group's result.
func TestSubmitHolderCancelledMidGroupAnswersEveryone(t *testing.T) {
	w, s := newGatedWriter(t)
	first := holdFirstGroup(t, w, s)

	const k = 8
	ctxs := make([]context.Context, k)
	cancels := make([]context.CancelFunc, k)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
	}
	second := submitAll(w, ctxs)
	parkedWriters(t, k)

	// Gate the second group too: whichever writer gets the lock claims
	// the other k-1, and every context — the holder's included — ends
	// while that group is in the step.
	inSecond, releaseSecond := make(chan struct{}), make(chan struct{})
	step := w.commit
	w.commit = func(h writeHeld, group []*commitReq) {
		close(inSecond)
		<-releaseSecond
		step(h, group)
	}
	close(s.release)
	if res := <-first; res.err != nil || res.bt.Index != 1 {
		t.Fatalf("first group: %+v", res)
	}
	<-inSecond
	for _, c := range cancels {
		c()
	}
	close(releaseSecond)
	for i := 0; i < k; i++ {
		if res := <-second; res.err != nil || res.bt.Index != k {
			t.Fatalf("writer %d answered %+v, want the %d-request group's result", i, res, k)
		}
	}
	if got := s.sizes(); len(got) != 2 || got[1] != k {
		t.Fatalf("groups %v, want [1 %d]", got, k)
	}
}

// A request whose context ends while it waits for the lock returns its
// context's error and never reaches the group step.
func TestSubmitWithdrawnRequestNeverReachesStep(t *testing.T) {
	w, s := newGatedWriter(t)
	first := holdFirstGroup(t, w, s)

	ctx, cancel := context.WithCancel(context.Background())
	withdrawn := make(chan commitRes, 1)
	req := &commitReq{}
	go func() { withdrawn <- w.submit(ctx, req) }()
	parkedWriters(t, 1)
	cancel()
	if res := <-withdrawn; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("withdrawn write answered %+v, want context.Canceled", res)
	}
	close(s.release)
	<-first
	if res := w.submit(context.Background(), &commitReq{}); res.err != nil {
		t.Fatal(res.err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.groups {
		for _, r := range g {
			if r == req {
				t.Fatal("a withdrawn request reached the group step")
			}
		}
	}
	if len(s.groups) != 2 {
		t.Fatalf("%d groups, want 2", len(s.groups))
	}
}

// No group exceeds maxCommitGroup, however many writers wait.
func TestSubmitGroupsAreBounded(t *testing.T) {
	w, s := newGatedWriter(t)
	first := holdFirstGroup(t, w, s)

	const k = maxCommitGroup + 10
	ctxs := make([]context.Context, k)
	for i := range ctxs {
		ctxs[i] = context.Background()
	}
	rest := submitAll(w, ctxs)
	parkedWriters(t, k)
	close(s.release)
	<-first
	for i := 0; i < k; i++ {
		if res := <-rest; res.err != nil {
			t.Fatal(res.err)
		}
	}
	total, largest := 0, 0
	for _, n := range s.sizes() {
		if n > maxCommitGroup {
			t.Fatalf("groups %v: one exceeds maxCommitGroup %d", s.sizes(), maxCommitGroup)
		}
		total, largest = total+n, max(largest, n)
	}
	if total != k+1 || largest != maxCommitGroup {
		t.Fatalf("groups %v, want %d requests with one full group of %d", s.sizes(), k+1, maxCommitGroup)
	}
}

// k plain-Service writers parked behind a held lock are committed in one
// group: each batch applied and published at the next LSN.
func TestServiceWritersParkedBehindLockCommitAsOneGroup(t *testing.T) {
	s := NewService(Options{Seed: 1, Parallelism: 1})
	var sizes []int
	step := s.w.commit
	s.w.commit = func(h writeHeld, group []*commitReq) {
		sizes = append(sizes, len(group))
		step(h, group)
	}

	const k = 6
	s.w.mu.Lock()
	acks := make(chan uint64, k)
	for i := 0; i < k; i++ {
		g := internalStressGraph(t, ID(1000*(i+1)), 3)
		go func() {
			bt, _, err := s.IngestIdempotent(context.Background(), "", g)
			if err != nil {
				t.Error(err)
			}
			acks <- bt.LSN
		}()
	}
	parkedWriters(t, k)
	s.w.mu.Unlock()
	seen := make(map[uint64]bool)
	for i := 0; i < k; i++ {
		seen[<-acks] = true
	}
	for lsn := uint64(1); lsn <= k; lsn++ {
		if !seen[lsn] {
			t.Fatalf("acks stated LSNs %v, want 1..%d", seen, k)
		}
	}
	if len(sizes) != 1 || sizes[0] != k {
		t.Fatalf("groups %v, want one group of %d", sizes, k)
	}
	st := s.Stats()
	if st.LSN != k || st.Nodes != 3*k {
		t.Fatalf("stats %+v, want LSN %d, %d nodes", st, k, 3*k)
	}
}

// Two of k plain-Service writers parked behind a held lock share a key:
// the group applies the key once and answers the other writer replayed,
// and the applied-key set is bounded by the shared default.
func TestServiceKeyedWritersInOneGroupApplyOnce(t *testing.T) {
	s := NewService(Options{Seed: 1, Parallelism: 1})
	var sizes []int
	step := s.w.commit
	s.w.commit = func(h writeHeld, group []*commitReq) {
		sizes = append(sizes, len(group))
		step(h, group)
	}

	const k = 6
	keys := []string{"dup", "dup", "k2", "k3", "k4", "k5"}
	s.w.mu.Lock()
	type ack struct {
		key      string
		lsn      uint64
		replayed bool
	}
	acks := make(chan ack, k)
	for i := 0; i < k; i++ {
		g := internalStressGraph(t, ID(1000*(i+1)), 3)
		go func() {
			bt, replayed, err := s.IngestIdempotent(context.Background(), keys[i], g)
			if err != nil {
				t.Error(err)
			}
			acks <- ack{keys[i], bt.LSN, replayed}
		}()
	}
	parkedWriters(t, k)
	s.w.mu.Unlock()
	replayed := 0
	dupLSNs := map[uint64]bool{}
	for i := 0; i < k; i++ {
		a := <-acks
		if a.replayed {
			replayed++
		}
		if a.key == "dup" {
			dupLSNs[a.lsn] = true
		}
	}
	if len(sizes) != 1 || sizes[0] != k {
		t.Fatalf("groups %v, want one group of %d", sizes, k)
	}
	if st := s.Stats(); replayed != 1 || st.Batches != k-1 || st.Nodes != 3*(k-1) || st.LSN != k-1 {
		t.Fatalf("%d replayed, stats %+v; want 1 replayed, %d batches, %d nodes, LSN %d", replayed, st, k-1, 3*(k-1), k-1)
	}
	// Both "dup" writers, the applied one and the in-group replay, state
	// one LSN; so does a later retry.
	lsn, _ := s.w.keys.seen("dup")
	if len(dupLSNs) != 1 || !dupLSNs[lsn] || lsn == 0 {
		t.Fatalf("dup writers acked LSNs %v, want only the applied write's %d", dupLSNs, lsn)
	}
	if bt, replayed, err := s.IngestIdempotent(context.Background(), "dup", internalStressGraph(t, 9000, 3)); err != nil || !replayed || bt.LSN != lsn {
		t.Fatalf("retry of dup: LSN %d replayed %v err %v, want LSN %d replayed", bt.LSN, replayed, err, lsn)
	}

	// The key set holds at most the default, forgetting the oldest key.
	if s.w.keys.len() != k-1 || s.w.keys.cap != defaultMaxIdempotencyKeys {
		t.Fatalf("%d keys retained of cap %d, want %d of %d", s.w.keys.len(), s.w.keys.cap, k-1, defaultMaxIdempotencyKeys)
	}
	for i := 0; i < defaultMaxIdempotencyKeys; i++ {
		s.w.keys.add(fmt.Sprint("fill-", i), 0)
	}
	if _, seen := s.w.keys.seen("dup"); seen || s.w.keys.len() != defaultMaxIdempotencyKeys {
		t.Fatalf("after overfilling: %d keys, oldest still seen %v; want %d, false", s.w.keys.len(), seen, defaultMaxIdempotencyKeys)
	}
}
