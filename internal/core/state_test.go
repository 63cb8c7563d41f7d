package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"testing"

	"rbmim/internal/codec"
	"rbmim/internal/detectors"
	"rbmim/internal/stats"
)

// stateTestConfig is small enough for fast tests while exercising odd kernel
// tails, several classes, and the adaptive window.
func stateTestConfig(steps int) Config {
	return Config{
		Features: 9, Classes: 4, BatchSize: 10,
		GibbsSteps: steps, WarmupBatches: 3, TrendWindow: 8,
		AdaptiveWindow: true, Seed: 11,
	}
}

// stateObsDraw produces a reproducible raw (unscaled) observation stream
// with exact zeros, occasional out-of-range labels, and a mid-stream shift
// so the monitors see real trend activity.
func stateObsDraw(seed int64, features, classes int) func(i int) detectors.Observation {
	rng := rand.New(rand.NewSource(seed))
	return func(i int) detectors.Observation {
		x := make([]float64, features)
		for j := range x {
			if rng.Intn(8) == 0 {
				continue
			}
			x[j] = rng.Float64() * 3
			if i > 900 {
				x[j] += 1.5 // level shift: make drifts plausible post-resume
			}
		}
		y := rng.Intn(classes)
		if rng.Intn(97) == 0 {
			y = -1 // out-of-range label travels the partial-batch path too
		}
		return detectors.Observation{X: x, TrueClass: y, Predicted: y}
	}
}

// detectorStateBytes snapshots det into a fresh byte slice.
func detectorStateBytes(t *testing.T, det *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := det.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDetectorKillResumeBitIdentical is the tentpole contract: training N
// observations, checkpointing mid-mini-batch, restoring into a fresh
// detector (a simulated new process), and continuing must be bit-identical
// to never stopping — same per-observation states, same RBM weights, same
// serialized state — at CD-1 and CD-4.
func TestDetectorKillResumeBitIdentical(t *testing.T) {
	for _, steps := range []int{1, 4} {
		cfg := stateTestConfig(steps)
		control, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		victim, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		draw := stateObsDraw(int64(steps)*31, cfg.Features, cfg.Classes)

		// Phase 1: both detectors consume the same prefix. 577 is not a
		// multiple of BatchSize, so the checkpoint carries a partial batch.
		const cut, total = 577, 1800
		for i := 0; i < cut; i++ {
			o := draw(i)
			if s1, s2 := control.Update(o), victim.Update(o); s1 != s2 {
				t.Fatalf("CD-%d: pre-cut step %d states diverged: %v vs %v", steps, i, s1, s2)
			}
		}

		// Kill: serialize the victim and rebuild it from scratch.
		snapshot := detectorStateBytes(t, victim)
		resumed, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.LoadState(bytes.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}

		// Phase 2: the control (which never stopped) and the resumed copy
		// must agree on every subsequent observation.
		for i := cut; i < total; i++ {
			o := draw(i)
			if s1, s2 := control.Update(o), resumed.Update(o); s1 != s2 {
				t.Fatalf("CD-%d: post-resume step %d states diverged: %v vs %v", steps, i, s1, s2)
			}
		}
		paramsEqualBits(t, "kill-resume CD-"+string(rune('0'+steps)), control.rbm, resumed.rbm)
		if control.rbm.WeightChecksum() != resumed.rbm.WeightChecksum() {
			t.Fatalf("CD-%d: weight checksums differ", steps)
		}
		// The strongest equivalence: the complete serialized states (weights,
		// counts, scaler, monitors, RNG position, partial batch) match byte
		// for byte.
		if !bytes.Equal(detectorStateBytes(t, control), detectorStateBytes(t, resumed)) {
			t.Fatalf("CD-%d: serialized states differ after resume", steps)
		}
	}
}

// TestDetectorLoadsElementwiseCheckpoint: testdata/detector_v1.ckpt was
// written before the codec coded float slices in one pass, by a detector of
// stateTestConfig(1) after 577 observations of stateObsDraw(5). It must
// load with the weights it was saved with and re-save to the same bytes, so
// checkpoints on disk survive the change.
func TestDetectorLoadsElementwiseCheckpoint(t *testing.T) {
	old, err := os.ReadFile("testdata/detector_v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(stateTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := det.LoadStateBytes(old); err != nil {
		t.Fatal(err)
	}
	if got, want := det.rbm.WeightChecksum(), uint64(0x90ee1dfbf31736cd); got != want {
		t.Fatalf("loaded weight checksum %#x, want %#x", got, want)
	}
	if !bytes.Equal(detectorStateBytes(t, det), old) {
		t.Fatal("re-saved checkpoint differs from the one loaded")
	}
}

// TestDetectorLoadStateRejectsMismatchedConfig pins that a snapshot only
// loads into an identically configured detector.
func TestDetectorLoadStateRejectsMismatchedConfig(t *testing.T) {
	cfg := stateTestConfig(1)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := stateObsDraw(5, cfg.Features, cfg.Classes)
	for i := 0; i < 100; i++ {
		det.Update(draw(i))
	}
	snapshot := detectorStateBytes(t, det)

	mutations := []Config{cfg, cfg, cfg, cfg}
	mutations[0].Seed = 12
	mutations[1].BatchSize = 20
	mutations[2].GibbsSteps = 2
	mutations[3].Classes = 5
	for i, bad := range mutations {
		other, err := NewDetector(bad)
		if err != nil {
			t.Fatal(err)
		}
		before := detectorStateBytes(t, other)
		if err := other.LoadStateBytes(snapshot); err == nil {
			t.Fatalf("mutation %d: mismatched config accepted", i)
		} else if !errors.Is(err, codec.ErrInvalid) {
			t.Fatalf("mutation %d: error %v is not codec.ErrInvalid", i, err)
		}
		if !bytes.Equal(before, detectorStateBytes(t, other)) {
			t.Fatalf("mutation %d: failed load mutated the receiver", i)
		}
	}
}

// patchCRC recomputes a frame's trailing CRC after a deliberate payload
// mutation, so the corruption reaches the semantic validators instead of
// being caught by the checksum.
func patchCRC(frame []byte) {
	binary.LittleEndian.PutUint32(frame[len(frame)-4:],
		crc32.ChecksumIEEE(frame[:len(frame)-4]))
}

// TestDetectorLoadStateNeverHalfLoads flips every byte of a valid snapshot
// (with the CRC re-fixed so decoding actually runs) and requires that every
// failed load leaves the receiver bit-identical to before, and that no input
// panics. Successful loads (a flipped weight bit is still a valid snapshot)
// are fine — the guarantee under test is error ⇒ untouched.
func TestDetectorLoadStateNeverHalfLoads(t *testing.T) {
	cfg := stateTestConfig(1)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := stateObsDraw(7, cfg.Features, cfg.Classes)
	for i := 0; i < 137; i++ {
		det.Update(draw(i))
	}
	snapshot := detectorStateBytes(t, det)

	receiver, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pristine := detectorStateBytes(t, receiver)
	loaded := 0
	for i := 0; i < len(snapshot)-4; i++ {
		bad := append([]byte(nil), snapshot...)
		bad[i] ^= 0x10
		patchCRC(bad)
		if err := receiver.LoadStateBytes(bad); err != nil {
			if !errors.Is(err, codec.ErrInvalid) {
				t.Fatalf("flip at %d: error %v is not codec.ErrInvalid", i, err)
			}
			if !bytes.Equal(pristine, detectorStateBytes(t, receiver)) {
				t.Fatalf("flip at %d: failed load mutated the receiver", i)
			}
			continue
		}
		// Load succeeded: the mutated state must still be continuable.
		loaded++
		receiver.Update(draw(0))
		// Rebuild a pristine receiver for the next iteration.
		receiver, err = NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pristine = detectorStateBytes(t, receiver)
	}
	if loaded == 0 {
		t.Log("no mutation produced a loadable snapshot (all were caught by validation)")
	}
	// Pure truncations must always fail.
	for n := 0; n < len(snapshot); n += 7 {
		if err := receiver.LoadStateBytes(snapshot[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// A wrong format version must fail with a version message.
	bad := append([]byte(nil), snapshot...)
	bad[4] = codec.Version + 1
	patchCRC(bad)
	if err := receiver.LoadStateBytes(bad); err == nil || !errors.Is(err, codec.ErrInvalid) {
		t.Fatalf("wrong version accepted: %v", err)
	}
}

// TestDetectorLoadStateRejectsOversizedTrendWindow crafts snapshots whose
// class trend window sits at and one past the 4*TrendWindow clamp
// processBatch enforces. The clamped one restores and keeps running at the
// widest window, which indexes the last critical-value table entry; the
// wider one is a codec error that leaves the receiver untouched.
func TestDetectorLoadStateRejectsOversizedTrendWindow(t *testing.T) {
	cfg := stateTestConfig(1)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := stateObsDraw(17, cfg.Features, cfg.Classes)
	for i := 0; i < 400; i++ {
		det.Update(draw(i))
	}
	clamp := 4 * cfg.TrendWindow
	for _, w := range []int{clamp, clamp + 1} {
		tr := stats.NewSlidingTrend(w)
		for i := 0; i < w; i++ {
			tr.Add(1 + 0.01*float64(i%3))
		}
		det.monitor[1].trend = tr
		buf := codec.NewBuffer(nil)
		det.encodeState(buf)
		snapshot := codec.AppendFrame(nil, codec.KindRBMIM, buf.Bytes())

		receiver, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := detectorStateBytes(t, receiver)
		err = receiver.LoadStateBytes(snapshot)
		if w == clamp {
			if err != nil {
				t.Fatalf("window %d (the clamp) rejected: %v", w, err)
			}
			for i := 0; i < 20*cfg.BatchSize; i++ {
				receiver.Update(draw(i))
			}
			continue
		}
		if err == nil {
			t.Fatalf("window %d above the %d clamp accepted", w, clamp)
		}
		if !errors.Is(err, codec.ErrInvalid) {
			t.Fatalf("window %d: error %v is not codec.ErrInvalid", w, err)
		}
		if !bytes.Equal(before, detectorStateBytes(t, receiver)) {
			t.Fatalf("window %d: failed load mutated the receiver", w)
		}
	}
}

// TestRNGReplayCeiling pins both halves of the ceiling: SaveState refuses to
// emit a snapshot that could never be restored, and LoadState rejects a
// hand-rolled snapshot past the ceiling instead of replaying for hours.
func TestRNGReplayCeiling(t *testing.T) {
	cfg := stateTestConfig(1)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det.rbm.src.calls = maxRNGReplay + 1
	var buf bytes.Buffer
	if err := det.SaveState(&buf); err == nil {
		t.Fatal("SaveState emitted a snapshot beyond the replay ceiling")
	}
	// Craft the over-ceiling snapshot directly (bypassing SaveState's guard)
	// to exercise the decode-side check.
	w := codec.NewBuffer(nil)
	det.encodeState(w)
	snapshot := codec.AppendFrame(nil, codec.KindRBMIM, w.Bytes())
	fresh, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadStateBytes(snapshot); err == nil {
		t.Fatal("RNG position beyond the replay ceiling accepted")
	}
}

// TestSaveStateAllocationFree pins that periodic snapshots reuse the
// struct-owned scratch: after the first call, SaveState performs no heap
// allocations (the property the monitor's snapshot cadence relies on).
func TestSaveStateAllocationFree(t *testing.T) {
	cfg := stateTestConfig(1)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := stateObsDraw(9, cfg.Features, cfg.Classes)
	for i := 0; i < 250; i++ {
		det.Update(draw(i))
	}
	if err := det.SaveState(io.Discard); err != nil { // grow the scratch once
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := det.SaveState(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("SaveState allocates %.1f per call", allocs)
	}
}

// TestDetectorResetAllocationFree pins that Reset restarts every class's
// trend and ADWIN in place: once the monitors exist, it performs no heap
// allocations (the post-drift restart of one class shares the same code).
func TestDetectorResetAllocationFree(t *testing.T) {
	cfg := stateTestConfig(1)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := stateObsDraw(9, cfg.Features, cfg.Classes)
	for i := 0; i < 1200; i++ {
		det.Update(draw(i))
	}
	if allocs := testing.AllocsPerRun(20, det.Reset); allocs != 0 {
		t.Fatalf("Reset allocates %.1f per call", allocs)
	}
}

// FuzzDetectorLoadState feeds arbitrary bytes to the loader: it must never
// panic, and whenever it reports success the detector must still be usable.
func FuzzDetectorLoadState(f *testing.F) {
	cfg := stateTestConfig(1)
	seedDet, err := NewDetector(cfg)
	if err != nil {
		f.Fatal(err)
	}
	draw := stateObsDraw(13, cfg.Features, cfg.Classes)
	for i := 0; i < 120; i++ {
		seedDet.Update(draw(i))
	}
	var buf bytes.Buffer
	if err := seedDet.SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("RBCK garbage"))
	f.Add([]byte{})

	probe := draw(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		det, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := det.LoadStateBytes(data); err != nil && !errors.Is(err, codec.ErrInvalid) {
			t.Fatalf("load error %v does not wrap codec.ErrInvalid", err)
		}
		det.Update(probe) // must not panic, loaded or not
	})
}
