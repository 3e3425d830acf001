package store

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/pghive/pghive/internal/vfs"
)

// TestHandlerAuth pins the auth matrix: reads open, mutations require
// the exact bearer token, and a handler configured with no token
// refuses every mutation.
func TestHandlerAuth(t *testing.T) {
	ctx := context.Background()
	back := NewDir(vfs.NewMemFS(), "/obj")
	if err := back.Put(ctx, "manifest-1.mft", []byte("m")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(back, "sekrit"))
	defer srv.Close()

	do := func(method, path, token string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader("body"))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		method, path, token string
		want                int
	}{
		{http.MethodGet, ObjectPath("manifest-1.mft"), "", http.StatusOK},
		{http.MethodGet, ObjectsRoute, "", http.StatusOK},
		{http.MethodGet, ObjectsRoute + "?prefix=manifest-", "", http.StatusOK},
		{http.MethodPut, ObjectPath("wal/1.wal"), "", http.StatusUnauthorized},
		{http.MethodPut, ObjectPath("wal/1.wal"), "wrong", http.StatusUnauthorized},
		{http.MethodPut, ObjectPath("wal/1.wal"), "sekrit", http.StatusNoContent},
		{http.MethodDelete, ObjectPath("wal/1.wal"), "", http.StatusUnauthorized},
		{http.MethodDelete, ObjectPath("wal/1.wal"), "sekrit", http.StatusNoContent},
		{http.MethodPost, ObjectPath("manifest-1.mft"), "sekrit", http.StatusMethodNotAllowed},
		{http.MethodGet, ObjectPath("..%2Fescape"), "", http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := do(c.method, c.path, c.token); got != c.want {
			t.Errorf("%s %s token=%q: status %d, want %d", c.method, c.path, c.token, got, c.want)
		}
	}
}

// TestHandlerNoTokenRefusesMutations: an empty configured token means
// the leader never accepts remote writes, even with an empty bearer.
func TestHandlerNoTokenRefusesMutations(t *testing.T) {
	srv := httptest.NewServer(Handler(NewDir(vfs.NewMemFS(), "/obj"), ""))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPut, srv.URL+ObjectPath("a"), strings.NewReader("x"))
	req.Header.Set("Authorization", "Bearer ")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("PUT with no configured token: status %d, want 401", resp.StatusCode)
	}
}

// FuzzHTTPList serves fuzzed list bodies to the HTTP client: List never
// panics, allocates within the budget the other decoders of untrusted
// bytes keep (1 MiB + 256 × input), and every listing it accepts holds
// only valid names under the prefix, strictly sorted.
func FuzzHTTPList(f *testing.F) {
	f.Add([]byte(`{"objects":["manifest-00000000000000000002.mft","wal/00000000000000000001.wal"]}`), "")
	f.Add([]byte(`{"objects":["wal/b.wal","wal/a.wal","wal/a.wal"]}`), "wal/")
	f.Add([]byte(`{"objects":["../x"]}`), "")
	f.Add([]byte(`{"objects":["wal/../x"]}`), "wal/")
	f.Add([]byte(`{"objects":["manifest-1.mft"]}`), "wal/")
	f.Add([]byte(`{"objects":[""]}`), "")
	f.Add([]byte(`{"objects":null}`), "manifest-")
	f.Add([]byte(`{"objects":[1,2]}`), "")
	f.Add([]byte(`[]`), "")
	f.Add([]byte(`{"objects":["a"]`), "")

	var body atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(*body.Load())
	}))
	defer srv.Close()
	h, err := NewHTTP(srv.URL, "", srv.Client())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, prefix string) {
		body.Store(&data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		names, err := h.List(context.Background(), prefix)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); grew > limit {
			t.Fatalf("List of a %d-byte body allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		for i, name := range names {
			if err := ValidateName(name); err != nil {
				t.Fatalf("accepted an invalid name: %v", err)
			}
			if !strings.HasPrefix(name, prefix) {
				t.Fatalf("accepted %q under prefix %q", name, prefix)
			}
			if i > 0 && names[i-1] >= name {
				t.Fatalf("accepted listing is not strictly sorted: %q before %q", names[i-1], name)
			}
		}
	})
}

// TestHTTPNotFound maps a 404 to ErrNotFound so the follower can tell
// "not shipped yet" from a transport fault.
func TestHTTPBadBase(t *testing.T) {
	if _, err := NewHTTP("not-a-url", "", nil); err == nil {
		t.Fatal("NewHTTP accepted a relative base URL")
	}
	if _, err := NewHTTP("", "", nil); err == nil {
		t.Fatal("NewHTTP accepted an empty base URL")
	}
}
