// Package client is the supported way to talk to a pghive serve
// instance over HTTP. It owns the retry discipline a robust caller
// needs and the server cooperates with:
//
//   - Per-attempt timeouts, so one stalled connection never wedges the
//     caller.
//   - Jittered exponential backoff on 429/503 (the server's declared
//     backpressure signals) and on connection errors, honoring the
//     server's Retry-After hint as the floor.
//   - Idempotency keys on writes: every /ingest and /retract carries a
//     generated Idempotency-Key header, and the server tracks applied
//     keys — so retrying a write whose first attempt timed out or hit
//     a 5xx applies the batch exactly once. A durable server
//     write-ahead logs the keys, so that holds across a server crash
//     too; a plain server holds them in memory only. Keyed writes (and
//     GETs) are therefore also safe to retry on 5xx and mid-request
//     connection failures, which unkeyed writes are not.
//
// A write refused with 409 read-only (the server's declared degraded
// mode) is surfaced as *StatusError immediately: backoff cannot fix a
// full disk or a broken WAL, an operator re-arm does.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	pghive "github.com/pghive/pghive"
)

// Options tunes a Client. Zero values select the documented defaults.
type Options struct {
	// HTTPClient is the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// RequestTimeout bounds each attempt (default 30s; <0 disables).
	RequestTimeout time.Duration
	// MaxAttempts caps tries per call, first attempt included
	// (default 5).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff schedule (default
	// 100ms); MaxBackoff caps it (default 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Rand supplies backoff jitter in [0,1). Default math/rand.
	Rand func() float64
	// NewIdempotencyKey mints the key attached to each write (default
	// 16 random bytes, hex). Distinct calls MUST get distinct keys.
	NewIdempotencyKey func() string
	// DisableIdempotencyKeys sends writes bare. Retries of unkeyed
	// writes are then only attempted on 429/503 — the statuses that
	// guarantee the server did no work.
	DisableIdempotencyKeys bool
}

// Defaults applied by New when the corresponding Options field is
// zero: the per-call deadline, the attempt budget one logical call
// may spend, and the exponential-backoff bounds between attempts.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxAttempts    = 5
	DefaultBaseBackoff    = 100 * time.Millisecond
	DefaultMaxBackoff     = 5 * time.Second
)

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = DefaultBaseBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.Rand == nil {
		o.Rand = mathrand.Float64
	}
	if o.NewIdempotencyKey == nil {
		o.NewIdempotencyKey = func() string {
			var b [16]byte
			if _, err := rand.Read(b[:]); err != nil {
				panic(fmt.Sprintf("pghive/client: idempotency key entropy: %v", err))
			}
			return hex.EncodeToString(b[:])
		}
	}
	return o
}

// StatusError is a non-2xx response that survived the retry policy —
// either not retryable, or retryable and still failing after
// MaxAttempts.
type StatusError struct {
	Code int
	Body string
	// RetryAfter is the server's backoff hint (zero when none was
	// sent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("pghive/client: server returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// IsReadOnly reports whether err is the server's declared read-only
// rejection — retrying is pointless until the server is re-armed.
func IsReadOnly(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusConflict
}

// Client talks to one pghive serve base URL. Safe for concurrent use.
type Client struct {
	base    string
	opts    Options
	retries atomic.Uint64
}

// New builds a client for baseURL (e.g. "http://localhost:8080").
func New(baseURL string, opts Options) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), opts: opts.withDefaults()}
}

// Retries reports the total retry attempts (not first attempts) the
// client has made — the observable cost of an unreliable server.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// WriteResult is the server's acknowledgment of a write.
type WriteResult struct {
	// LSN is the log position the write was applied at — for a replay,
	// the original write's; for a -batch-size body, its last batch's.
	LSN uint64 `json:"lsn"`
	// Replayed reports the write was a duplicate of an already-applied
	// idempotency key: the batch was NOT applied again.
	Replayed bool `json:"replayed"`
	// Stats is the server's post-write stats object, verbatim.
	Stats json.RawMessage `json:"stats"`
	// Attempts is how many HTTP attempts this call used.
	Attempts int `json:"-"`
}

// Ingest serializes g as JSONL and ingests it as one atomic batch.
func (c *Client) Ingest(ctx context.Context, g *pghive.Graph) (*WriteResult, error) {
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, g); err != nil {
		return nil, err
	}
	return c.IngestJSONL(ctx, buf.Bytes())
}

// IngestJSONL ingests a pre-serialized JSONL body as one atomic batch.
func (c *Client) IngestJSONL(ctx context.Context, body []byte) (*WriteResult, error) {
	return c.write(ctx, "/ingest", body)
}

// Retract serializes g as JSONL and retracts it as one atomic batch.
func (c *Client) Retract(ctx context.Context, g *pghive.Graph) (*WriteResult, error) {
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, g); err != nil {
		return nil, err
	}
	return c.RetractJSONL(ctx, buf.Bytes())
}

// RetractJSONL retracts a pre-serialized JSONL body as one atomic
// batch.
func (c *Client) RetractJSONL(ctx context.Context, body []byte) (*WriteResult, error) {
	return c.write(ctx, "/retract", body)
}

func (c *Client) write(ctx context.Context, path string, body []byte) (*WriteResult, error) {
	var key string
	if !c.opts.DisableIdempotencyKeys {
		key = c.opts.NewIdempotencyKey()
	}
	data, _, attempts, err := c.do(ctx, http.MethodPost, path, body, key)
	if err != nil {
		return nil, err
	}
	res := &WriteResult{Attempts: attempts}
	if jsonErr := json.Unmarshal(data, res); jsonErr != nil {
		return nil, fmt.Errorf("pghive/client: decode %s response: %w", path, jsonErr)
	}
	res.Attempts = attempts
	return res, nil
}

// Stats fetches the server's stats document verbatim.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	data, _, _, err := c.do(ctx, http.MethodGet, "/stats", nil, "")
	return data, err
}

// Schema fetches the discovered schema in the given format (json,
// pgschema, xsd, or dot; "" lets the server default) and the LSN of
// the state it renders, which the server sends as the ETag.
func (c *Client) Schema(ctx context.Context, format string) (doc []byte, lsn uint64, err error) {
	path := "/schema"
	if format != "" {
		path += "?format=" + format
	}
	doc, hdr, _, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err == nil {
		lsn, err = strconv.ParseUint(strings.Trim(hdr.Get("ETag"), `"`), 10, 64)
	}
	return doc, lsn, err
}

// Lag fetches a follower's replication position from GET /lag. Only
// read-only replicas (pghive serve -follow) expose the endpoint; a
// leader answers 404, surfaced as a *StatusError.
func (c *Client) Lag(ctx context.Context) (*pghive.FollowerLag, error) {
	data, _, _, err := c.do(ctx, http.MethodGet, "/lag", nil, "")
	if err != nil {
		return nil, err
	}
	var lag pghive.FollowerLag
	if err := json.Unmarshal(data, &lag); err != nil {
		return nil, fmt.Errorf("pghive/client: decode /lag response: %w", err)
	}
	return &lag, nil
}

// Healthy reports the server's /healthz verdict; a degraded-but-
// serving instance is healthy. Any reachable server answers.
func (c *Client) Healthy(ctx context.Context) error {
	_, _, _, err := c.do(ctx, http.MethodGet, "/healthz", nil, "")
	return err
}

// do runs one logical call under the retry policy and returns the
// response body and header and the number of attempts used. key, when
// non-empty, is sent as the Idempotency-Key header and marks the call
// safe to retry past ambiguous failures.
func (c *Client) do(ctx context.Context, method, path string, body []byte, key string) ([]byte, http.Header, int, error) {
	idempotent := method == http.MethodGet || key != ""
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
		}
		data, hdr, retryable, err := c.attempt(ctx, method, path, body, key)
		if err == nil {
			return data, hdr, attempt, nil
		}
		// An ambiguous failure — the server may have done the work —
		// is only safe to retry when the call is idempotent.
		if retryable == retryAmbiguous && !idempotent {
			return nil, nil, attempt, err
		}
		if retryable == retryNever || attempt >= c.opts.MaxAttempts {
			return nil, nil, attempt, err
		}
		if err := c.sleep(ctx, c.backoff(attempt, err)); err != nil {
			return nil, nil, attempt, err
		}
	}
}

type retryClass int

const (
	retryNever     retryClass = iota // permanent: 4xx contract errors
	retrySafe                        // server provably did no work: 429/503
	retryAmbiguous                   // request may have been applied: conn errors, 5xx
)

// attempt performs one HTTP round trip.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, key string) ([]byte, http.Header, retryClass, error) {
	actx := ctx
	if c.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return nil, nil, retryNever, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, retryNever, ctx.Err() // the caller's deadline, not the attempt's
		}
		return nil, nil, retryAmbiguous, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, nil, retryAmbiguous, err
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return data, resp.Header, retryNever, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		se := &StatusError{Code: resp.StatusCode, Body: string(data)}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return nil, nil, retrySafe, se
	case resp.StatusCode >= 500:
		return nil, nil, retryAmbiguous, &StatusError{Code: resp.StatusCode, Body: string(data)}
	default:
		// 4xx: the request itself is wrong (or refused by contract,
		// like 409 read-only); a retry would repeat the refusal.
		return nil, nil, retryNever, &StatusError{Code: resp.StatusCode, Body: string(data)}
	}
}

// backoff computes the pre-retry sleep: jittered exponential, floored
// by the server's Retry-After hint when one was sent.
func (c *Client) backoff(attempt int, err error) time.Duration {
	d := c.opts.BaseBackoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	// Jitter into [d/2, d): desynchronizes a thundering herd while
	// keeping the expected wait close to the schedule.
	d = d/2 + time.Duration(c.opts.Rand()*float64(d/2))
	// Honor the server's hint as a floor, but never past MaxBackoff —
	// the caller's patience bound outranks the server's suggestion.
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > d {
		d = se.RetryAfter
		if d > c.opts.MaxBackoff {
			d = c.opts.MaxBackoff
		}
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
