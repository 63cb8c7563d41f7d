package core

// Drift flight recorder: a small ring of the most recent per-class
// detection-statistics samples, kept so a confirmed drift can ship its own
// postmortem. Every completed reconstruction-error point (Eq. 27) deposits
// one sample — the per-class mean error, the trend slope (Eq. 28 family),
// and the ADWIN window width at that moment — and a confirmed drift
// snapshots the ring into an immutable DriftRecord. The recorder reads only
// values the detector already computed, so it never perturbs a detection
// decision, and it is deliberately excluded from SaveState/LoadState: it
// describes the recent past of a live process, not detector state, and a
// rehydrated stream restarts with an empty ring.

// flightRecorderDepth is the ring capacity: enough to cover the trend
// window plus the two-escape confirmation sequence leading into a drift.
const flightRecorderDepth = 32

// DriftSample is one flight-recorder entry: the detection statistics of one
// class at one completed reconstruction-error point.
type DriftSample struct {
	// Batch is the detector's mini-batch counter when the sample was taken.
	Batch int
	// Class is the class the sample describes.
	Class int
	// Err is the per-class mean reconstruction error (Eq. 27).
	Err float64
	// Slope is the class's trend slope before this point was absorbed.
	Slope float64
	// Width is the class's ADWIN window width at the sample.
	Width int
}

// DriftRecord is the postmortem attached to a confirmed drift: the classes
// that drifted, the detector batch index at confirmation, and the recorder
// ring's samples in chronological order. A record is immutable once built,
// so it may be shared across events and goroutines freely.
type DriftRecord struct {
	// Batch is the mini-batch index at which the drift was confirmed.
	Batch int
	// Classes lists the drifted classes (DriftClasses at confirmation).
	Classes []int
	// Samples holds the recorder ring, oldest first. Interleaves all
	// classes; filter by Class for one class's trajectory.
	Samples []DriftSample
}

// recordSample deposits one sample in the ring. Called on the hot path; a
// ring write, never an allocation.
func (d *Detector) recordSample(k int, r float64, m *classMonitor) {
	d.recorder[d.recHead] = DriftSample{
		Batch: d.batches,
		Class: k,
		Err:   r,
		Slope: m.trend.Slope(),
		Width: m.adwin.Width(),
	}
	d.recHead = (d.recHead + 1) % len(d.recorder)
	if d.recLen < len(d.recorder) {
		d.recLen++
	}
}

// buildDriftRecord snapshots the ring and the drifted classes into a fresh
// record. Only called when a drift is confirmed (cold path), so the copies
// are off the ingest fast path; they are the detector's only steady-state
// allocations: three per confirmed drift (the record, its Classes and its
// Samples).
func (d *Detector) buildDriftRecord(classes []int) *DriftRecord {
	rec := &DriftRecord{
		Batch:   d.batches,
		Classes: append([]int(nil), classes...),
		Samples: make([]DriftSample, d.recLen),
	}
	start := d.recHead - d.recLen
	if start < 0 {
		start += len(d.recorder)
	}
	for i := 0; i < d.recLen; i++ {
		rec.Samples[i] = d.recorder[(start+i)%len(d.recorder)]
	}
	return rec
}

// LastDriftRecord returns the flight record of the most recent confirmed
// drift, or nil before the first drift. The record is immutable; callers
// may retain it.
func (d *Detector) LastDriftRecord() *DriftRecord { return d.lastDrift }
