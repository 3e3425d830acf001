package pghive

// walpayload.go is the one spelling of a durable write in the WAL. The
// wal package frames and checksums opaque payloads; what a payload
// holds is decided here, by encodeWALRecordPayload on the write path
// and decodeWALRecordPayload, which writer.replay — recovery, Rearm's
// catch-up and a follower's tail — decodes every record through.
//
// A payload is
//
//	u8 key length | key | raw DEFLATE stream of the batch's JSONL
//
// where a key length of 0 marks an unkeyed write. The idempotency key
// rides in the record so the applied-key set is reconstructible from
// the log alone. The JSONL is never materialized whole: WriteJSONL
// streams into a pooled compressor, and ReadJSONL reads from a pooled
// decompressor.
//
// A payload is hostile input to the decoder: it refuses a stream that
// ends before its final block, bytes after the final block, and a
// stream that inflates past walInflateLimit of its compressed size.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// WAL record types. Types 1–5 (plain JSONL payloads, keyed and
// unkeyed, and the streamed batch) are retired: replay refuses them as
// unknown types rather than guess at their meaning.
const (
	walRecIngest  byte = 6
	walRecRetract byte = 7
)

// MaxIdempotencyKeyLen bounds an idempotency key: the key is encoded
// in the WAL record behind a one-byte length.
const MaxIdempotencyKeyLen = 255

// walInflateRatio and walInflateSlack bound what a payload's DEFLATE
// stream may inflate to: ratio × its compressed size, plus the slack.
// The bound keeps decoding a payload within 1 MiB + 256 bytes of
// allocation per payload byte (FuzzWALPayload). ReadJSONL allocates at
// most 64 bytes per JSONL byte on the costliest lines there are
// (internal/pg's TestReadJSONLHostileAllocsPerByte; properties five
// bytes apart measure 50, LDBC 4.5), so a ratio of 3 spends at most
// 192 of the 256 bytes, and the slack at most 512 KiB of the MiB. The
// slack lets an ordinary write compress whole; a bulk load logs about
// 36% of its JSONL.
const (
	walInflateRatio = 3
	walInflateSlack = 8 << 10
)

// walInflateLimit is the most a stream of compressed bytes may inflate to.
func walInflateLimit(compressed int) int64 {
	return walInflateRatio*int64(compressed) + walInflateSlack
}

var (
	errWALNoFinalBlock = errors.New("deflate stream ends before its final block")
	errWALTrailing     = errors.New("bytes after the final deflate block")
	errWALInflation    = fmt.Errorf("batch inflates past %d× its compressed size", walInflateRatio)
)

// walCompressor deflates one batch's JSONL into dst a window at a time.
// A window that would take the stream past walInflateLimit goes in as a
// stored block instead, so the bound holds after every window: the
// decoder never refuses what the encoder wrote, and the JSONL is encoded
// once.
type walCompressor struct {
	zw     *flate.Writer
	window []byte // JSONL not yet in the stream, at most flateWindow bytes
	dst    *bytes.Buffer
	start  int   // dst.Len() where the stream begins
	raw    int64 // JSONL bytes in the stream
}

// flateWindow is the most JSONL one window holds: the most a BestSpeed
// compressor buffers, and the most one stored block carries.
const flateWindow = 1<<16 - 1

// walCompressors holds compressors: flate.NewWriter allocates about a
// megabyte, and Reset is equivalent to a new writer, so pooled ones write
// the same bytes.
var walCompressors = sync.Pool{New: func() any {
	zw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	return &walCompressor{zw: zw, window: make([]byte, 0, flateWindow)}
}}

func (c *walCompressor) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(c.window) == flateWindow {
			if err := c.encode(false); err != nil {
				return 0, err
			}
		}
		k := min(len(p), flateWindow-len(c.window))
		c.window = append(c.window, p[:k]...)
		p = p[k:]
	}
	return n, nil
}

// encode appends the window to the stream, deflated if the stream stays
// inside walInflateLimit and stored if not; final ends the stream.
func (c *walCompressor) encode(final bool) error {
	mark := c.dst.Len()
	_, err := c.zw.Write(c.window)
	if err == nil && final {
		err = c.zw.Close()
	} else if err == nil {
		err = c.zw.Flush()
	}
	if err != nil {
		return err
	}
	c.raw += int64(len(c.window))
	if c.raw > walInflateLimit(c.dst.Len()-c.start) {
		// A stored block is longer than its bytes, so it keeps the
		// bound. The compressor's history held the dropped window.
		c.dst.Truncate(mark)
		c.zw.Reset(c.dst)
		var head [5]byte // BFINAL, BTYPE 00, then LEN and NLEN
		if final {
			head[0] = 1
		}
		binary.LittleEndian.PutUint16(head[1:], uint16(len(c.window)))
		binary.LittleEndian.PutUint16(head[3:], ^uint16(len(c.window)))
		c.dst.Write(head[:])
		c.dst.Write(c.window)
	}
	c.window = c.window[:0]
	return nil
}

// encodeWALRecordPayload spells one write — its idempotency key ("" for
// none) and its batch — as a WAL record payload: the inverse of
// decodeWALRecordPayload. Encode failures are wrapped in
// DurabilityError. The key is at most MaxIdempotencyKeyLen bytes:
// writer.write refuses a longer one before it gets here.
func encodeWALRecordPayload(key string, g *Graph) ([]byte, error) {
	buf := bytes.NewBuffer(append([]byte{byte(len(key))}, key...))
	c := walCompressors.Get().(*walCompressor)
	defer walCompressors.Put(c)
	c.zw.Reset(buf)
	c.window, c.dst, c.start, c.raw = c.window[:0], buf, buf.Len(), 0
	defer func() { c.zw.Reset(nil); c.dst = nil }() // the pool must not keep buf alive
	err := WriteJSONL(c, g)
	if err == nil {
		err = c.encode(true)
	}
	if err != nil {
		return nil, &DurabilityError{Err: fmt.Errorf("pghive: durable: encode batch: %w", err)}
	}
	return buf.Bytes(), nil
}

// walDecompressor reads one payload's stream, holding it to its
// inflation bound and remembering how the stream ended.
type walDecompressor struct {
	src  bytes.Reader
	zr   io.ReadCloser // a flate reader over src
	left int64         // inflated bytes the stream may still yield
	err  error         // the first error the stream returned; io.EOF at its end
}

func (d *walDecompressor) Read(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if int64(len(p)) > d.left+1 {
		p = p[:d.left+1]
	}
	n, err := d.zr.Read(p)
	if int64(n) > d.left {
		n, err = int(d.left), errWALInflation
	}
	d.left -= int64(n)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		err = errWALNoFinalBlock
	}
	d.err = err
	return n, err
}

// walDecompressors holds flate readers, reset onto each payload.
var walDecompressors = sync.Pool{New: func() any {
	d := &walDecompressor{}
	d.zr = flate.NewReader(&d.src)
	return d
}}

// decodeWALRecordPayload reads a payload written by
// encodeWALRecordPayload back into the write's key and batch.
func decodeWALRecordPayload(payload []byte) (string, *Graph, error) {
	if len(payload) == 0 || len(payload) < 1+int(payload[0]) {
		return "", nil, errors.New("truncated idempotency key")
	}
	n := 1 + int(payload[0])
	key, stream := string(payload[1:n]), payload[n:]

	d := walDecompressors.Get().(*walDecompressor)
	defer walDecompressors.Put(d)
	d.src.Reset(stream)
	defer d.src.Reset(nil) // the pool must not keep the payload alive
	if err := d.zr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return "", nil, err
	}
	d.left, d.err = walInflateLimit(len(stream)), nil

	g, err := ReadJSONL(d, true)
	// A broken stream is the cause of whatever JSONL error it left
	// behind, and a stream can break where a line happens to end.
	if d.err != nil && d.err != io.EOF {
		return "", nil, d.err
	}
	if err != nil {
		return "", nil, err
	}
	if d.src.Len() > 0 {
		return "", nil, errWALTrailing
	}
	return key, g, nil
}
