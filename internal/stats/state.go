package stats

import "rbmim/internal/codec"

// This file serializes the two stateful statistics RBM-IM's per-class
// monitors carry across checkpoints: the ADWIN exponential histogram and the
// sliding trend regression. Both follow the repository-wide checkpoint
// contract (see internal/codec): EncodeState appends the full mutable state
// to a codec.Buffer; DecodeState reads it back, validating every structural
// invariant, and replaces the receiver only after the whole decode
// succeeded — a failed decode leaves the receiver untouched.

// EncodeState appends the ADWIN's complete state.
func (a *ADWIN) EncodeState(w *codec.Buffer) {
	w.F64(a.delta)
	w.Int(a.clock)
	w.Int(a.ticks)
	w.Int(a.width)
	w.F64(a.total)
	w.F64(a.varSq)
	w.Bool(a.detected)
	w.Int(len(a.rows))
	for _, row := range a.rows {
		w.Int(row.size)
		w.Int(len(row.buckets))
		for _, b := range row.buckets {
			w.F64(b.sum)
			w.F64(b.varSq)
		}
	}
}

// DecodeState restores state written by EncodeState. On error the receiver
// is unchanged.
func (a *ADWIN) DecodeState(r *codec.Reader) error {
	tmp := ADWIN{
		delta:    r.F64(),
		clock:    r.Int(),
		ticks:    r.Int(),
		width:    r.Int(),
		total:    r.F64(),
		varSq:    r.F64(),
		detected: r.Bool(),
	}
	nRows := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if tmp.delta <= 0 || tmp.delta >= 1 {
		r.Fail("adwin delta %v outside (0,1)", tmp.delta)
		return r.Err()
	}
	if tmp.clock < 1 || tmp.ticks < 0 || tmp.width < 0 {
		r.Fail("adwin counters negative or zero clock")
		return r.Err()
	}
	if nRows < 1 || nRows > 64 {
		r.Fail("adwin has %d histogram rows", nRows)
		return r.Err()
	}
	tmp.rows = make([]adwinRow, nRows)
	elems := 0
	wantSize := 1
	for i := range tmp.rows {
		size := r.Int()
		nb := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		// Row i summarizes 2^i elements per bucket and holds at most
		// maxBuckets+? buckets (compression keeps rows at maxBuckets, but a
		// snapshot can only ever be taken at a compressed state).
		if size != wantSize || nb < 0 || nb > adwinMaxBuckets {
			r.Fail("adwin row %d: size %d buckets %d", i, size, nb)
			return r.Err()
		}
		wantSize *= 2
		row := adwinRow{size: size, buckets: newAdwinBuckets()[:nb]}
		for j := range row.buckets {
			row.buckets[j] = adwinBucket{sum: r.F64(), varSq: r.F64()}
		}
		tmp.rows[i] = row
		elems += size * nb
	}
	if r.Err() != nil {
		return r.Err()
	}
	if elems != tmp.width {
		r.Fail("adwin width %d but histogram holds %d elements", tmp.width, elems)
		return r.Err()
	}
	*a = tmp
	return nil
}

// EncodeState appends the trend tracker's complete state.
func (s *SlidingTrend) EncodeState(w *codec.Buffer) {
	w.Int(s.w)
	w.Int(s.t)
	w.F64(s.tr)
	w.F64(s.st)
	w.F64(s.sr)
	w.F64(s.st2)
	w.Int(s.head)
	w.Bool(s.full)
	w.F64s(s.hist)
}

// DecodeState restores state written by EncodeState. On error the receiver
// is unchanged.
func (s *SlidingTrend) DecodeState(r *codec.Reader) error {
	tmp := SlidingTrend{
		w:   r.Int(),
		t:   r.Int(),
		tr:  r.F64(),
		st:  r.F64(),
		sr:  r.F64(),
		st2: r.F64(),
	}
	tmp.head = r.Int()
	tmp.full = r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if tmp.w < 2 {
		r.Fail("trend window %d < 2", tmp.w)
		return r.Err()
	}
	tmp.hist = r.F64sLen(tmp.w)
	if r.Err() != nil {
		return r.Err()
	}
	if tmp.head < 0 || tmp.head >= tmp.w || tmp.t < 0 {
		r.Fail("trend cursor head=%d t=%d window=%d", tmp.head, tmp.t, tmp.w)
		return r.Err()
	}
	*s = tmp
	return nil
}
