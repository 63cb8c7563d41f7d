// Package codec implements the reflection-free binary format behind every
// checkpointable object in this repository (RBM weights, detector state,
// monitor stream envelopes). The design goals, in order:
//
//  1. Corrupt, truncated, or wrong-version input must produce an error —
//     never a panic and never a half-decoded object. Every frame carries a
//     magic, a format version, an explicit payload length, and a CRC-32 of
//     everything before it; every Reader access is bounds-checked with a
//     sticky error.
//  2. Save → load must be bit-exact. Floats travel as their IEEE-754 bit
//     patterns (math.Float64bits), never through text formatting.
//  3. The hot callers (periodic monitor snapshots) must be able to reuse
//     buffers: Buffer appends into a caller-owned byte slice and implements
//     io.Writer, so steady-state snapshots allocate nothing once grown.
//
// The format is deliberately hand-rolled rather than encoding/gob: gob is
// reflection-driven, embeds type descriptors whose layout is outside our
// control (so "bit-identical across save/load" becomes unfalsifiable), and
// cannot decode into preallocated storage. See DESIGN.md, "Checkpoint
// format".
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the current checkpoint format version. Decoders reject frames
// carrying any other version; bump it on any layout change.
const Version = 1

// Frame kinds: which object a frame's payload describes. A decoder asserts
// the kind it expects, so feeding a DDM snapshot to an RBM-IM detector fails
// cleanly instead of mis-decoding.
const (
	KindRBM           uint8 = 1 // core.RBM network state
	KindRBMIM         uint8 = 2 // core.Detector (RBM-IM) full state
	KindDDM           uint8 = 3
	KindEDDM          uint8 = 4
	KindADWINDetector uint8 = 5
	KindMonitorStream uint8 = 6 // monitor per-stream envelope (seq + detector frame)
)

// Wire kinds: the frames of the driftserver network protocol (see
// internal/server). They share the checkpoint frame format — magic, version,
// length, CRC — so the server reuses this package's framing and corruption
// handling verbatim, but live in a disjoint numeric range so a checkpoint
// file fed to a server socket (or vice versa) fails cleanly on kind.
//
// The numeric block doubles as the wire protocol revision: the frame-level
// Version byte is shared with the checkpoint format and cannot be bumped
// for wire-only changes without orphaning saved checkpoints, so any
// incompatible change to a wire payload moves the whole kind block to a
// fresh range instead. A version-skewed peer then fails fast and loudly —
// the server answers "unknown request kind" and hangs up, the client
// surfaces an unexpected reply kind — rather than misparsing the payload
// bytes into garbage requests. Revision 1 occupied 16–28; revision 2 moved
// to 32–49 when the ingest payloads gained the exactly-once session id +
// sequence number between the request id and the stream ID (the cluster
// migration kinds 45–49 joined it as compatible additions); revision 3
// (current) moved to 64–87 when the Event payload gained the optional
// drift flight-recorder record and the LastDrift request was added.
//
// Kinds 64 (single-observation Ingest, now a one-observation IngestBatch)
// and 66 (TryIngestBatch, superseded by server-side shedding) are retired
// and reserved: no surviving payload changed shape, so the block did not
// move, and an old peer sending either draws the "unknown request kind"
// Error and a hangup.
const (
	// Requests (client -> server). Every request payload starts with a u64
	// request id echoed by the matching reply.
	KindWireIngestBatch uint8 = 65 // a block of observations for one stream
	KindWireSubscribe   uint8 = 67 // turn the connection into a drift-event stream
	KindWireSnapshotReq uint8 = 68 // request an aggregate monitor snapshot
	KindWireEvict       uint8 = 69 // evict one stream (spills with checkpointing on)
	KindWireFlush       uint8 = 70 // process everything queued + flush checkpoints
	KindWireMigrate     uint8 = 71 // export a stream's detector state for handoff
	KindWireHandoff     uint8 = 72 // install an exported state on the target server
	KindWireStreams     uint8 = 73 // list resident stream IDs
	KindWireLastDrift   uint8 = 74 // fetch a stream's last drift flight record

	// Replies (server -> client).
	KindWireOK        uint8 = 80 // request succeeded, no payload beyond the id
	KindWireBusy      uint8 = 81 // the server shed the request (shard queue over ShedHighWater)
	KindWireError     uint8 = 82 // request failed; payload carries a message
	KindWireSnapshot  uint8 = 83 // snapshot reply; payload is canonical JSON
	KindWireEvent     uint8 = 84 // pushed drift event (request id 0)
	KindWireState     uint8 = 85 // Migrate reply; payload is a checkpoint envelope frame
	KindWireStreamIDs uint8 = 86 // Streams reply; payload is a list of stream IDs
	KindWireDrift     uint8 = 87 // LastDrift reply; payload is a JSON drift report
)

// ErrInvalid is wrapped by every decode failure, so callers can test
// errors.Is(err, codec.ErrInvalid) regardless of the specific corruption.
var ErrInvalid = errors.New("codec: invalid checkpoint data")

// frame layout: magic(4) | version(1) | kind(1) | payloadLen(u32) | payload | crc32(u32)
// The CRC covers magic through payload inclusive.
const (
	magic       = "RBCK"
	headerSize  = 4 + 1 + 1 + 4
	trailerSize = 4
	// MaxPayload bounds a frame's declared payload length so corrupt length
	// fields cannot drive giant allocations. 1 GiB is orders of magnitude
	// above any real detector state.
	MaxPayload = 1 << 30
)

// Buffer is the append-side primitive writer. The zero value is ready to
// use; Bytes returns the accumulated encoding. It implements io.Writer so
// object Save methods can stream a nested frame straight into an outer
// payload without a second buffer.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer appending onto b (pass a recycled slice to
// reuse its capacity; pass nil to start fresh).
func NewBuffer(b []byte) *Buffer { return &Buffer{b: b[:0]} }

// Bytes returns the encoded bytes. The slice is owned by the Buffer and is
// invalidated by the next append or Reset.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the number of encoded bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Reset discards the contents, keeping the backing array.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// Write implements io.Writer (raw append, no length prefix).
func (w *Buffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// U8 appends one byte.
func (w *Buffer) U8(v uint8) { w.b = append(w.b, v) }

// U32 appends a little-endian uint32.
func (w *Buffer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 appends a little-endian uint64.
func (w *Buffer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// I64 appends a little-endian int64.
func (w *Buffer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64.
func (w *Buffer) Int(v int) { w.I64(int64(v)) }

// Bool appends a bool as one byte (0/1).
func (w *Buffer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Buffer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string (decode with Blob).
func (w *Buffer) Str(s string) {
	w.U32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// F64s appends a length-prefixed float64 slice.
func (w *Buffer) F64s(v []float64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.F64(x)
	}
}

// Ints appends a length-prefixed int slice (each element an int64).
func (w *Buffer) Ints(v []int) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(int64(x))
	}
}

// BeginFrame appends a frame header (magic, version, kind) with a zero
// payload length and returns a mark for EndFrame. Everything appended
// between the two calls becomes the frame's payload, so hot paths build a
// complete wire frame in one buffer — payload and framing together, no
// second copy like AppendFrame's — and several frames appended back to back
// form one contiguous region a single socket write (or writev batch entry)
// can push out.
func (w *Buffer) BeginFrame(kind uint8) int {
	w.b = append(w.b, magic...)
	w.b = append(w.b, Version, kind)
	mark := len(w.b)
	w.U32(0)
	return mark
}

// EndFrame completes the frame begun at mark: it patches the payload length
// and appends the CRC-32 over the header and payload, producing bytes
// identical to AppendFrame over the same payload.
func (w *Buffer) EndFrame(mark int) {
	binary.LittleEndian.PutUint32(w.b[mark:mark+4], uint32(len(w.b)-mark-4))
	start := mark - (headerSize - 4)
	sum := crc32.ChecksumIEEE(w.b[start:])
	w.U32(sum)
}

// Mark reserves a u32 slot at the current position (for a to-be-known
// length) and returns its offset for PatchLen.
func (w *Buffer) Mark() int {
	off := len(w.b)
	w.U32(0)
	return off
}

// PatchLen writes the number of bytes appended since Mark into the reserved
// slot, turning everything after the mark into a length-prefixed region.
func (w *Buffer) PatchLen(mark int) {
	binary.LittleEndian.PutUint32(w.b[mark:mark+4], uint32(len(w.b)-mark-4))
}

// Reader is the bounds-checked decode-side cursor over one payload. Any
// out-of-bounds access or failed validation sets a sticky error; subsequent
// reads return zero values. Decoders must check Err (or Done) before
// committing decoded state.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset repoints the Reader at b and clears the sticky error, so decode
// loops (one payload per network frame) can reuse one Reader value instead
// of allocating per frame.
func (r *Reader) Reset(b []byte) {
	r.b, r.off, r.err = b, 0, nil
}

// Remaining returns the number of unread bytes (0 after an error).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.b) - r.off
}

// Err returns the sticky error, nil while all reads have been in bounds.
func (r *Reader) Err() error { return r.err }

// Fail sets the sticky error (used by decoders for semantic validation
// failures, e.g. an impossible field value). The first failure wins.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	}
}

// Done returns the sticky error, or an error when decodable bytes remain —
// a well-formed frame must be consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrInvalid, len(r.b)-r.off)
	}
	return nil
}

// take returns the next n bytes, or nil after setting the sticky error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = fmt.Errorf("%w: truncated (need %d bytes, have %d)", ErrInvalid, n, len(r.b)-r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 and validates it fits the platform int.
func (r *Reader) Int() int {
	v := r.I64()
	n := int(v)
	if int64(n) != v {
		r.Fail("int64 %d overflows int", v)
		return 0
	}
	return n
}

// Bool reads one byte, requiring 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("bad bool byte")
		return false
	}
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// count reads a u32 length prefix and validates that count elements of
// elemSize bytes fit in the remaining input, so corrupt prefixes cannot
// drive giant allocations. The bound is computed in int64 so a prefix near
// 2^32 cannot wrap on 32-bit platforms and reach make() (the check also
// proves the returned value fits the platform int).
func (r *Reader) count(elemSize int) int {
	n := int64(r.U32())
	if r.err != nil {
		return 0
	}
	if n*int64(elemSize) > int64(len(r.b)-r.off) {
		r.Fail("count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// F64s reads a length-prefixed float64 slice into a fresh allocation.
func (r *Reader) F64s() []float64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// F64sInto reads a length-prefixed float64 slice by appending onto dst,
// reusing its capacity — the decode-side sibling of Buffer.F64s for callers
// that recycle buffers (the server's pooled observation slabs). On error the
// input dst is returned unchanged.
func (r *Reader) F64sInto(dst []float64) []float64 {
	n := r.count(8)
	if r.err != nil {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.F64())
	}
	return dst
}

// F64sLen reads a length-prefixed float64 slice, requiring exactly want
// elements (the shape check every fixed-dimension field needs).
func (r *Reader) F64sLen(want int) []float64 {
	mark := r.off
	out := r.F64s()
	if r.err == nil && len(out) != want {
		r.off = mark
		r.Fail("float slice has %d elements, want %d", len(out), want)
		return nil
	}
	return out
}

// Ints reads a length-prefixed int slice into a fresh allocation.
func (r *Reader) Ints() []int {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// Blob reads a length-prefixed byte region and returns a view into the
// Reader's input (valid as long as the input is).
func (r *Reader) Blob() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// AppendFrame appends a complete frame (header, payload, CRC) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, kind uint8, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, magic...)
	dst = append(dst, Version, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// ParseFrame validates a complete frame and returns its kind and a view of
// its payload. The input must contain exactly one frame.
func ParseFrame(data []byte) (kind uint8, payload []byte, err error) {
	if len(data) < headerSize+trailerSize {
		return 0, nil, fmt.Errorf("%w: %d bytes is shorter than a frame", ErrInvalid, len(data))
	}
	if string(data[:4]) != magic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	if v := data[4]; v != Version {
		return 0, nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrInvalid, v, Version)
	}
	kind = data[5]
	n := binary.LittleEndian.Uint32(data[6:10])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrInvalid, n)
	}
	if len(data) != headerSize+int(n)+trailerSize {
		return 0, nil, fmt.Errorf("%w: frame is %d bytes, header declares %d", ErrInvalid, len(data), headerSize+int(n)+trailerSize)
	}
	body := data[:headerSize+int(n)]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (corrupt frame)", ErrInvalid)
	}
	return kind, data[headerSize : headerSize+int(n)], nil
}

// ExpectFrame parses a frame and additionally asserts its kind.
func ExpectFrame(data []byte, kind uint8) ([]byte, error) {
	k, payload, err := ParseFrame(data)
	if err != nil {
		return nil, err
	}
	if k != kind {
		return nil, fmt.Errorf("%w: frame kind %d, want %d", ErrInvalid, k, kind)
	}
	return payload, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, kind uint8, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, kind, payload))
	return err
}

// ReadFrame reads exactly one frame from r: the fixed header first, then the
// declared payload and CRC. Short reads surface as ErrInvalid-wrapped
// errors, and the frame is re-validated end to end (including CRC) before
// the payload is returned. ReadFrame does not buffer r, so it never reads
// past its frame.
func ReadFrame(r io.Reader) (kind uint8, payload []byte, err error) {
	kind, payload, err = readFrame(r, new([]byte), MaxPayload)
	if err == io.EOF {
		// Unlike a connection loop (FrameScanner.Next), a checkpoint load
		// expects a frame to be present: an empty input is invalid input.
		return 0, nil, fmt.Errorf("%w: reading frame header: %v", ErrInvalid, io.EOF)
	}
	return kind, payload, err
}

// scanBufSize is a FrameScanner's read buffer: one Read fills it with a
// whole pipelined window of small frames.
const scanBufSize = 32 << 10

// FrameScanner reads a stream of consecutive frames from r, reusing one
// internal buffer across frames — the connection-loop primitive of the
// network protocol, where a steady-state reader must not allocate per frame.
// The payload returned by Next is a view into that buffer, valid only until
// the next call. The scanner reads r through its own 32 KiB bufio.Reader,
// so a burst of small frames costs one Read on r instead of two per frame;
// it reads ahead of the frames it returns, so only the scanner may read r.
// A frame split across arbitrarily small Reads (TCP segmentation) is
// reassembled.
type FrameScanner struct {
	r   *bufio.Reader
	buf []byte
	max uint32
}

// NewFrameScanner returns a FrameScanner over r accepting payloads up to
// MaxPayload (lower it with LimitPayload when r is an untrusted peer).
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{r: bufio.NewReaderSize(r, scanBufSize), max: MaxPayload}
}

// LimitPayload lowers the maximum accepted payload length. A frame declaring
// more than n bytes fails with ErrInvalid before any allocation, so a hostile
// length field cannot drive memory growth.
func (s *FrameScanner) LimitPayload(n int) {
	if n > 0 && uint32(n) < s.max {
		s.max = uint32(n)
	}
}

// Buffered returns the number of bytes read from r but not yet returned by
// Next: zero means the next Next blocks on r.
func (s *FrameScanner) Buffered() int { return s.r.Buffered() }

// Next reads and validates the next frame. A clean end of stream at a frame
// boundary returns io.EOF untouched (the signal a server loop exits on);
// every other failure — truncation mid-frame included — wraps ErrInvalid.
// The underlying read error is wrapped too, so a caller can distinguish a
// connection cut mid-frame (errors.Is(err, io.ErrUnexpectedEOF)) from other
// corruption.
func (s *FrameScanner) Next() (kind uint8, payload []byte, err error) {
	return readFrame(s.r, &s.buf, s.max)
}

// readFrame reads one frame of at most limit payload bytes from r into *buf,
// growing it as needed. Its errors are Next's.
func readFrame(r io.Reader, buf *[]byte, limit uint32) (kind uint8, payload []byte, err error) {
	if cap(*buf) < headerSize {
		*buf = make([]byte, headerSize, 4096)
	}
	head := (*buf)[:headerSize]
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading frame header: %w", ErrInvalid, err)
	}
	if string(head[:4]) != magic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	if v := head[4]; v != Version {
		return 0, nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrInvalid, v, Version)
	}
	n := binary.LittleEndian.Uint32(head[6:10])
	if n > limit {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrInvalid, n, limit)
	}
	total := headerSize + int(n) + trailerSize
	if cap(*buf) < total {
		grown := make([]byte, total)
		copy(grown, head)
		*buf = grown
	}
	frame := (*buf)[:total]
	if _, err := io.ReadFull(r, frame[headerSize:]); err != nil {
		return 0, nil, fmt.Errorf("%w: reading frame body: %w", ErrInvalid, err)
	}
	return ParseFrame(frame)
}
