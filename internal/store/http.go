package store

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
)

// ObjectsRoute is the mux pattern prefix the object endpoints live
// under; both Handler and the HTTP client derive every wire path from
// it, and the golden wire-path test pins the mapping.
const ObjectsRoute = "/v1/objects"

// ObjectPath returns the URL path serving the named object. Names are
// restricted by ValidateName to characters that need no escaping, so
// the mapping is the identity both ways.
func ObjectPath(name string) string { return ObjectsRoute + "/" + name }

// ListPath returns the URL path (with query) listing objects under
// prefix.
func ListPath(prefix string) string {
	if prefix == "" {
		return ObjectsRoute
	}
	return ObjectsRoute + "?prefix=" + url.QueryEscape(prefix)
}

// listResponse is the JSON body of a list request — the object-store
// wire format the golden test pins.
type listResponse struct {
	Objects []string `json:"objects"`
}

// HTTP is a Backend reaching a leader's object endpoints over HTTP:
// GET for reads and lists (unauthenticated, like every other read
// endpoint), PUT/DELETE with a bearer token. Atomic publish is the
// server's job (Handler delegates to its inner Backend); the client
// adds nothing but transport. Safe for concurrent use.
type HTTP struct {
	base   string
	token  string
	client *http.Client
}

// NewHTTP returns an HTTP backend addressing the object endpoints
// under baseURL (scheme://host[:port], no trailing path). token is
// sent as a bearer token on mutating requests ("" sends none). hc nil
// selects http.DefaultClient.
func NewHTTP(baseURL, token string, hc *http.Client) (*HTTP, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("store: leader url: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("store: leader url %q must be absolute", baseURL)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &HTTP{base: strings.TrimSuffix(u.String(), "/"), token: token, client: hc}, nil
}

// Put atomically publishes data under name via an authenticated PUT.
func (h *HTTP) Put(ctx context.Context, name string, data []byte) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, h.base+ObjectPath(name), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return statusErr("put", name, resp)
	}
	return nil
}

// Get returns the complete bytes of the named object, or ErrNotFound.
func (h *HTTP) Get(ctx context.Context, name string) ([]byte, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+ObjectPath(name), nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		return nil, ErrNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr("get", name, resp)
	}
	return io.ReadAll(resp.Body)
}

// maxListBytes bounds a list response body: a quarter of a million
// object names, far past what two retained generations and their WAL
// segments come to.
const maxListBytes = 8 << 20

// List returns the object names under prefix in lexicographic order.
// The listing is hostile input: a body cut off at maxListBytes fails to
// decode, a name ValidateName refuses or outside prefix fails the call,
// and the names are sorted and deduplicated here, not trusted to be.
func (h *HTTP) List(ctx context.Context, prefix string) ([]string, error) {
	if err := validatePrefix(prefix); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+ListPath(prefix), nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr("list", prefix, resp)
	}
	var lr listResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxListBytes)).Decode(&lr); err != nil {
		return nil, fmt.Errorf("store: list %q: %w", prefix, err)
	}
	for _, name := range lr.Objects {
		if ValidateName(name) != nil || !strings.HasPrefix(name, prefix) {
			return nil, fmt.Errorf("store: list %q: refused object name %q", prefix, name)
		}
	}
	slices.Sort(lr.Objects)
	return slices.Compact(lr.Objects), nil
}

// Delete removes the named object via an authenticated DELETE;
// ErrNotFound if absent.
func (h *HTTP) Delete(ctx context.Context, name string) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, h.base+ObjectPath(name), nil)
	if err != nil {
		return err
	}
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		return ErrNotFound
	}
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return statusErr("delete", name, resp)
	}
	return nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

func statusErr(op, name string, resp *http.Response) error {
	return fmt.Errorf("store: %s %q: unexpected status %s", op, name, resp.Status)
}

// Handler serves a Backend over the object-endpoint wire protocol:
//
//	GET    /v1/objects?prefix=P  → {"objects":[...]}
//	GET    /v1/objects/<name>    → object bytes (404 when absent)
//	PUT    /v1/objects/<name>    → 204 (requires the bearer token)
//	DELETE /v1/objects/<name>    → 204 (requires the bearer token)
//
// Reads are unauthenticated, matching the service's other read
// endpoints; mutating verbs require the configured bearer token
// (compared in constant time) and are refused outright when the
// handler was built with an empty token — an unconfigured leader never
// accepts remote writes by accident. Mount the handler at both
// "/v1/objects" and "/v1/objects/". Safe for concurrent use.
func Handler(b Backend, token string) http.Handler {
	return &handler{b: b, token: token}
}

type handler struct {
	b     Backend
	token string
}

// maxObjectBytes bounds a PUT body: comfortably above the largest
// artifact the shipper produces (a WAL segment, default 8 MiB) while
// keeping an unauthenticated-by-bug or runaway client from exhausting
// memory.
const maxObjectBytes = 1 << 30

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, ObjectsRoute)
	name = strings.TrimPrefix(name, "/")
	if name == "" {
		h.list(w, r)
		return
	}
	if err := ValidateName(name); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, err := h.b.Get(r.Context(), name)
		if err != nil {
			objErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	case http.MethodPut:
		if !h.authorized(r) {
			w.Header().Set("WWW-Authenticate", "Bearer")
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, maxObjectBytes+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(data) > maxObjectBytes {
			http.Error(w, "object too large", http.StatusRequestEntityTooLarge)
			return
		}
		if err := h.b.Put(r.Context(), name, data); err != nil {
			objErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		if !h.authorized(r) {
			w.Header().Set("WWW-Authenticate", "Bearer")
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		if err := h.b.Delete(r.Context(), name); err != nil {
			objErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, PUT, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	prefix := r.URL.Query().Get("prefix")
	if err := validatePrefix(prefix); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	names, err := h.b.List(r.Context(), prefix)
	if err != nil {
		objErr(w, err)
		return
	}
	if names == nil {
		names = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(listResponse{Objects: names})
}

// authorized checks the bearer token in constant time. An empty
// configured token authorizes nothing.
func (h *handler) authorized(r *http.Request) bool {
	if h.token == "" {
		return false
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(h.token)) == 1
}

func objErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNotFound) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
