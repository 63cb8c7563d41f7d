package codec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	w := NewBuffer(nil)
	w.U8(7)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.I64(-42)
	w.Int(-1)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Inf(1))
	w.F64(math.Copysign(0, -1))
	w.F64s([]float64{1.5, -2.5, 0})
	w.Ints([]int{3, -4, 5})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != -1 {
		t.Fatalf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if got := r.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, 1) {
		t.Fatalf("F64 inf = %v", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 -0 bits = %x", math.Float64bits(got))
	}
	fs := r.F64s()
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.5 || fs[2] != 0 {
		t.Fatalf("F64s = %v", fs)
	}
	is := r.Ints()
	if len(is) != 3 || is[0] != 3 || is[1] != -4 || is[2] != 5 {
		t.Fatalf("Ints = %v", is)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderTruncationIsSticky(t *testing.T) {
	w := NewBuffer(nil)
	w.U64(1)
	r := NewReader(w.Bytes()[:5])
	_ = r.U64()
	if r.Err() == nil {
		t.Fatal("truncated U64 did not error")
	}
	// Sticky: further reads stay zero-valued and keep the first error.
	if got := r.U32(); got != 0 {
		t.Fatalf("read after error = %d", got)
	}
	if !errors.Is(r.Err(), ErrInvalid) {
		t.Fatalf("error %v is not ErrInvalid", r.Err())
	}
}

func TestReaderCountBound(t *testing.T) {
	// A declared count far beyond the remaining bytes must error without
	// allocating the declared size.
	w := NewBuffer(nil)
	w.U32(1 << 30)
	r := NewReader(w.Bytes())
	if got := r.F64s(); got != nil || r.Err() == nil {
		t.Fatalf("oversized count accepted: %v / %v", got, r.Err())
	}
}

func TestReaderDoneRejectsTrailingBytes(t *testing.T) {
	w := NewBuffer(nil)
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	r.U8()
	if err := r.Done(); err == nil || !errors.Is(err, ErrInvalid) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

func TestMarkPatchLen(t *testing.T) {
	w := NewBuffer(nil)
	w.U8(9)
	mark := w.Mark()
	w.F64(1.0)
	w.F64(2.0)
	w.PatchLen(mark)
	r := NewReader(w.Bytes())
	if got := r.U8(); got != 9 {
		t.Fatalf("prefix = %d", got)
	}
	blob := r.Blob()
	if len(blob) != 16 {
		t.Fatalf("blob length = %d", len(blob))
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	frame := AppendFrame(nil, KindRBM, payload)
	kind, got, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindRBM || !bytes.Equal(got, payload) {
		t.Fatalf("kind %d payload %v", kind, got)
	}
	if _, err := ExpectFrame(frame, KindDDM); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	payload := []byte("detector state bytes")
	frame := AppendFrame(nil, KindRBMIM, payload)
	// Every single-byte flip anywhere in the frame must be rejected.
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := ParseFrame(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		} else if !errors.Is(err, ErrInvalid) {
			t.Fatalf("flip at byte %d: error %v is not ErrInvalid", i, err)
		}
	}
	// Every truncation must be rejected.
	for n := 0; n < len(frame); n++ {
		if _, _, err := ParseFrame(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage must be rejected (a frame is exactly one frame).
	if _, _, err := ParseFrame(append(append([]byte(nil), frame...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestReadWriteFrameStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindEDDM, []byte{42}); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindEDDM || len(payload) != 1 || payload[0] != 42 {
		t.Fatalf("kind %d payload %v", kind, payload)
	}
	// A stream that ends mid-frame errors instead of hanging or panicking.
	short := AppendFrame(nil, KindDDM, []byte{1, 2, 3})
	if _, _, err := ReadFrame(bytes.NewReader(short[:len(short)-2])); err == nil {
		t.Fatal("short stream accepted")
	}
}

func TestBufferReuseAndWriter(t *testing.T) {
	w := NewBuffer(make([]byte, 0, 64))
	w.U32(1)
	first := w.Len()
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	n, err := w.Write([]byte{1, 2, 3})
	if err != nil || n != 3 || w.Len() != 3 {
		t.Fatalf("Write: n=%d err=%v len=%d", n, err, w.Len())
	}
	_ = first
}

// TestBeginEndFrame: the in-place frame builder must produce bytes
// identical to AppendFrame for the same payload, including back-to-back
// frames in one buffer (the coalesced write path of the network server) and
// interleaved with non-frame appends before the first BeginFrame.
func TestBeginEndFrame(t *testing.T) {
	payloads := [][]byte{
		[]byte("first payload"),
		{},
		bytes.Repeat([]byte{0xCD}, 2000),
	}
	kinds := []uint8{KindWireIngestBatch, KindWireOK, KindWireEvent}
	var want []byte
	w := NewBuffer(nil)
	for i, p := range payloads {
		want = AppendFrame(want, kinds[i], p)
		mark := w.BeginFrame(kinds[i])
		w.Write(p)
		w.EndFrame(mark)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("BeginFrame/EndFrame bytes differ from AppendFrame:\n got %x\nwant %x", w.Bytes(), want)
	}
	// Every frame in the coalesced region parses back intact.
	sc := NewFrameScanner(bytes.NewReader(w.Bytes()))
	for i := range payloads {
		kind, payload, err := sc.Next()
		if err != nil || kind != kinds[i] || !bytes.Equal(payload, payloads[i]) {
			t.Fatalf("frame %d: kind=%d err=%v payload=%q", i, kind, err, payload)
		}
	}
	if _, _, err := sc.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}
	// A frame built mid-buffer (after unrelated bytes) still checksums only
	// its own region.
	w.Reset()
	w.U64(0xDEADBEEF) // unrelated prefix
	pre := w.Len()
	mark := w.BeginFrame(KindWireEvent)
	w.Str("payload")
	w.EndFrame(mark)
	var ref Buffer
	ref.Str("payload")
	if !bytes.Equal(w.Bytes()[pre:], AppendFrame(nil, KindWireEvent, ref.Bytes())) {
		t.Fatal("mid-buffer frame differs from AppendFrame over the same payload")
	}
}

// chunkReader serves its input in fixed-size chunks, simulating a TCP stream
// whose Read boundaries never align with frame boundaries.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// TestFrameScannerFragmentedReads drives a multi-frame stream through Read
// chunk sizes from one byte up past a whole frame — the boundary cases the
// TCP path produces for real — and requires every frame to decode intact.
func TestFrameScannerFragmentedReads(t *testing.T) {
	var stream []byte
	want := [][]byte{
		[]byte("first payload"),
		{},
		bytes.Repeat([]byte{0xAB}, 3000), // larger than any single chunk
		[]byte("last"),
	}
	kinds := []uint8{KindWireIngestBatch, KindWireOK, KindWireEvict, KindWireEvent}
	for i, p := range want {
		stream = AppendFrame(stream, kinds[i], p)
	}
	for _, chunk := range []int{1, 2, 3, 7, 10, 13, 64, 1000, len(stream)} {
		sc := NewFrameScanner(&chunkReader{data: stream, n: chunk})
		for i := range want {
			kind, payload, err := sc.Next()
			if err != nil {
				t.Fatalf("chunk=%d frame=%d: %v", chunk, i, err)
			}
			if kind != kinds[i] || !bytes.Equal(payload, want[i]) {
				t.Fatalf("chunk=%d frame=%d: kind=%d payload=%q", chunk, i, kind, payload)
			}
		}
		if _, _, err := sc.Next(); err != io.EOF {
			t.Fatalf("chunk=%d: want clean io.EOF at stream end, got %v", chunk, err)
		}
	}
}

// TestFrameScannerTruncation cuts a frame at every possible byte boundary:
// a cut at offset zero is a clean EOF, every later cut must surface as
// ErrInvalid (a peer died mid-frame).
func TestFrameScannerTruncation(t *testing.T) {
	frame := AppendFrame(nil, KindWireIngestBatch, []byte("payload under test"))
	for cut := 0; cut < len(frame); cut++ {
		sc := NewFrameScanner(&chunkReader{data: frame[:cut], n: 5})
		_, _, err := sc.Next()
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut=0: want io.EOF, got %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("cut=%d: want ErrInvalid, got %v", cut, err)
		}
	}
}

// TestFrameScannerLimitPayload verifies that a frame declaring a payload
// beyond the configured limit is rejected from the header alone.
func TestFrameScannerLimitPayload(t *testing.T) {
	frame := AppendFrame(nil, KindWireIngestBatch, make([]byte, 1024))
	sc := NewFrameScanner(bytes.NewReader(frame))
	sc.LimitPayload(512)
	if _, _, err := sc.Next(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid for over-limit payload, got %v", err)
	}
	// The same frame passes with the limit at its size.
	sc = NewFrameScanner(bytes.NewReader(frame))
	sc.LimitPayload(1024)
	if _, _, err := sc.Next(); err != nil {
		t.Fatalf("within-limit frame rejected: %v", err)
	}
}

// TestFrameScannerBufferReuse checks the steady-state contract: after the
// buffer has grown to the largest frame seen, further frames of that size or
// smaller allocate nothing.
func TestFrameScannerBufferReuse(t *testing.T) {
	var stream []byte
	for i := 0; i < 32; i++ {
		stream = AppendFrame(stream, KindWireIngestBatch, bytes.Repeat([]byte{byte(i)}, 2048))
	}
	sc := NewFrameScanner(bytes.NewReader(stream))
	if _, _, err := sc.Next(); err != nil { // grow once
		t.Fatal(err)
	}
	// 30 measured runs + AllocsPerRun's warmup run + the explicit grow call
	// above consume the 32 frames exactly.
	allocs := testing.AllocsPerRun(30, func() {
		if _, _, err := sc.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state scanner allocates %.1f allocs/frame, want 0", allocs)
	}
}

// TestReadFrameFragmented covers the one-shot ReadFrame entry point over the
// same fragmented transport (checkpoint loads from sockets or pipes).
func TestReadFrameFragmented(t *testing.T) {
	frame := AppendFrame(nil, KindRBM, []byte("detector state bytes"))
	for _, chunk := range []int{1, 3, 9, len(frame)} {
		kind, payload, err := ReadFrame(&chunkReader{data: frame, n: chunk})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if kind != KindRBM || string(payload) != "detector state bytes" {
			t.Fatalf("chunk=%d: kind=%d payload=%q", chunk, kind, payload)
		}
	}
	// ReadFrame (unlike FrameScanner.Next) treats an empty input as invalid:
	// a checkpoint load expects a frame to be there.
	if _, _, err := ReadFrame(&chunkReader{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty input: want ErrInvalid, got %v", err)
	}
}

// TestReadFrameExact pins ReadFrame's one-frame contract: it never reads
// past its frame, so back-to-back frames in one reader come out one call at
// a time and nothing is left behind.
func TestReadFrameExact(t *testing.T) {
	stream := AppendFrame(nil, KindRBM, []byte("first"))
	stream = AppendFrame(stream, KindDDM, []byte("second"))
	r := bytes.NewReader(stream)
	for i, want := range []string{"first", "second"} {
		_, payload, err := ReadFrame(r)
		if err != nil || string(payload) != want {
			t.Fatalf("frame %d: payload=%q err=%v, want %q", i, payload, err, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left unread after two frames", r.Len())
	}
}

// TestFrameScannerBuffered checks the flush-on-idle signal: after the first
// Next over a multi-frame input the scanner reports the unread frames'
// bytes, and after the last frame it reports 0.
func TestFrameScannerBuffered(t *testing.T) {
	first := AppendFrame(nil, KindWireOK, []byte("one"))
	stream := AppendFrame(first, KindWireOK, []byte("two"))
	stream = AppendFrame(stream, KindWireBusy, []byte("three"))
	sc := NewFrameScanner(bytes.NewReader(stream))
	next := func() {
		if _, _, err := sc.Next(); err != nil {
			t.Fatal(err)
		}
	}
	next()
	if got, want := sc.Buffered(), len(stream)-len(first); got != want {
		t.Fatalf("Buffered after the first frame = %d, want %d", got, want)
	}
	next()
	next()
	if got := sc.Buffered(); got != 0 {
		t.Fatalf("Buffered after the last frame = %d, want 0", got)
	}
}

// TestFrameScannerFrameBuffered: FrameBuffered is true exactly when the
// next frame is whole in the buffer, whether the rest of the stream is
// buffered behind it or still on the reader.
func TestFrameScannerFrameBuffered(t *testing.T) {
	first := AppendFrame(nil, KindWireOK, []byte("one"))
	second := AppendFrame(nil, KindWireBusy, bytes.Repeat([]byte("x"), 100))
	stream := append(append([]byte(nil), first...), second...)
	// The first Read hands out the first frame plus the second's header and
	// part of its payload.
	sc := NewFrameScanner(&chunkReader{data: stream, n: len(first) + headerSize + 10})
	if sc.FrameBuffered() {
		t.Fatal("FrameBuffered before any read = true")
	}
	if _, _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if sc.FrameBuffered() {
		t.Fatalf("FrameBuffered with %d of %d bytes of the next frame = true", sc.Buffered(), len(second))
	}
	if _, _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	sc = NewFrameScanner(bytes.NewReader(stream))
	if _, _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if !sc.FrameBuffered() {
		t.Fatalf("FrameBuffered with the whole next frame buffered (%d bytes) = false", sc.Buffered())
	}
	if _, _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if sc.FrameBuffered() {
		t.Fatal("FrameBuffered after the last frame = true")
	}
}

// TestReaderResetAndRemaining exercises the reusable-Reader path the
// connection loops depend on.
func TestReaderResetAndRemaining(t *testing.T) {
	var r Reader
	w := NewBuffer(nil)
	w.U32(7)
	w.Str("stream-1")
	r.Reset(w.Bytes())
	if got := r.Remaining(); got != w.Len() {
		t.Fatalf("Remaining = %d, want %d", got, w.Len())
	}
	if got := r.U32(); got != 7 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.Blob(); string(got) != "stream-1" {
		t.Fatalf("Blob = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// Trip the sticky error, then Reset must clear it.
	r.U64()
	if r.Err() == nil {
		t.Fatal("expected sticky error after over-read")
	}
	if got := r.Remaining(); got != 0 {
		t.Fatalf("Remaining after error = %d, want 0", got)
	}
	r.Reset([]byte{1})
	if r.Err() != nil {
		t.Fatal("Reset must clear the sticky error")
	}
	if got := r.U8(); got != 1 {
		t.Fatalf("U8 after Reset = %d", got)
	}
}

// TestF64sInto verifies append-into decoding reuses capacity and matches
// F64s element-for-element.
func TestF64sInto(t *testing.T) {
	w := NewBuffer(nil)
	vals := []float64{1.25, -7, 0, math.Inf(-1)}
	w.F64s(vals)
	w.F64s(nil)

	dst := make([]float64, 0, 16)
	r := NewReader(w.Bytes())
	dst = r.F64sInto(dst)
	if len(dst) != len(vals) {
		t.Fatalf("decoded %d floats, want %d", len(dst), len(vals))
	}
	for i := range vals {
		if math.Float64bits(dst[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("element %d: %v != %v", i, dst[i], vals[i])
		}
	}
	dst = r.F64sInto(dst)
	if len(dst) != len(vals) {
		t.Fatalf("empty slice decode appended: len=%d", len(dst))
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}
