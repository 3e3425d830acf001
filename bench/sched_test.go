package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must show in the latency of the requests
// that were due while it stalled, not only in the one request that hit
// the stall, and in how late the generator sent them.
func TestOpenLoopChargesAStallToTheRequestsQueuedBehindIt(t *testing.T) {
	const (
		n        = 1200
		interval = time.Millisecond
		stallAt  = 100
		stall    = 200 * time.Millisecond
	)
	var seen atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stallAt {
			time.Sleep(stall)
		}
	}))
	defer stub.Close()
	c := newConn(stub.URL)
	defer c.close()

	ss := openLoop(time.Now(), n, interval, func(int) error {
		_, err := c.do(http.MethodGet, "/", nil)
		return err
	})
	if failed := countFailed(ss); failed != 0 {
		t.Fatalf("%d requests failed: %v", failed, firstError(ss))
	}
	fromDue, err := percentile(sortedCopy(latenciesMs(ss)), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	var fromSend []float64
	for _, s := range ss {
		fromSend = append(fromSend, float64(s.done-s.sent)/float64(time.Millisecond))
	}
	sendP99, _ := percentile(sortedCopy(fromSend), 0.99)
	late, _ := percentile(sortedCopy(latenessMs(ss)), 0.99)
	half := float64(stall/time.Millisecond) / 2
	if fromDue < half {
		t.Errorf("p99 from the due time is %.1f ms; a %v stall with requests due every %v must raise it past %.0f ms", fromDue, stall, interval, half)
	}
	if sendP99 > half {
		t.Errorf("p99 from the send time is %.1f ms: the stub only stalled one request, the rest are fast", sendP99)
	}
	if late < half {
		t.Errorf("generator lateness p99 is %.1f ms; the stall must show there too", late)
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(xs[:19], 0.50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and was not refused")
	}
	if v, err := percentile(xs[:20], 0.50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// One long stall must land in one stretch and leave the reported tail
// where the other stretches put it.
func TestWindowedPercentileIgnoresOneStall(t *testing.T) {
	var times, values []float64
	for i := 0; i < 400; i++ {
		times = append(times, float64(i)*0.01) // 4 s, 100 samples per second
		v := 5.0 + float64(i%10)               // 5..14 ms, p90 = 13
		if i >= 100 && i < 130 {
			v = 400 // a 0.3 s stall in the second stretch
		}
		values = append(values, v)
	}
	whole, err := percentile(sortedCopy(values), 0.90)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := windowedPercentile(times, values, 4, 4, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if whole < 14 || windowed != 13 {
		t.Errorf("p90 over the whole span %v, over four stretches %v; want the stall to raise only the first, and 13", whole, windowed)
	}
	if _, err := windowedPercentile(times[:200], values[:200], 4, 4, 0.90); err == nil {
		t.Error("stretches without samples were not refused")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if math.Abs(q1-1.5) > 1e-12 || math.Abs(q3-12) > 1e-12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
