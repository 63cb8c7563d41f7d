package stats

import (
	"math/rand"
	"testing"
)

func TestADWINStationaryKeepsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewADWIN(0.002)
	detections := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if a.Add(rng.NormFloat64()*0.1 + 0.5) {
			detections++
		}
	}
	if detections > 4 {
		t.Fatalf("stationary stream caused %d detections", detections)
	}
	if a.Width() < n/4 {
		t.Fatalf("window collapsed on stationary data: width=%d", a.Width())
	}
}

func TestADWINDetectsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewADWIN(0.002)
	for i := 0; i < 3000; i++ {
		a.Add(rng.NormFloat64()*0.1 + 0.2)
	}
	widthBefore := a.Width()
	detected := false
	for i := 0; i < 3000; i++ {
		if a.Add(rng.NormFloat64()*0.1 + 0.8) {
			detected = true
		}
	}
	if !detected {
		t.Fatal("mean shift not detected")
	}
	if a.Width() >= widthBefore+3000 {
		t.Fatalf("window did not shrink: %d -> %d", widthBefore, a.Width())
	}
}

func TestADWINMeanTracksRecentData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewADWIN(0.002)
	for i := 0; i < 2000; i++ {
		a.Add(rng.NormFloat64()*0.05 + 0.1)
	}
	for i := 0; i < 4000; i++ {
		a.Add(rng.NormFloat64()*0.05 + 0.9)
	}
	if m := a.Mean(); m < 0.7 {
		t.Fatalf("mean %v should track the new level ~0.9", m)
	}
}

func TestADWINWidthCountsInsertions(t *testing.T) {
	a := NewADWIN(0.002)
	for i := 0; i < 100; i++ {
		a.Add(0.5)
	}
	if a.Width() != 100 {
		t.Fatalf("width = %d, want 100", a.Width())
	}
}

func TestADWINReset(t *testing.T) {
	a := NewADWIN(0.002)
	for i := 0; i < 500; i++ {
		a.Add(1)
	}
	a.Reset()
	if a.Width() != 0 || a.Mean() != 0 {
		t.Fatal("reset should clear the window")
	}
}

func TestADWINInvalidDeltaDefaults(t *testing.T) {
	a := NewADWIN(-1)
	if a.delta != 0.002 {
		t.Fatalf("invalid delta should default to 0.002, got %v", a.delta)
	}
}

// TestADWINAddAllocationFree pins the steady state of Add: once the window
// has grown to its largest width, compressing rows, cutting the window and
// growing it back must reuse the rows' bucket arrays. Each measured run is a
// whole cycle of a two-level stream, so it includes a cut, and an allocation
// anywhere in the cycle reads as at least 1 (AllocsPerRun truncates the mean).
func TestADWINAddAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cycle := make([]float64, 8000)
	for i := range cycle {
		level := 0.2
		if i >= len(cycle)/2 {
			level = 0.8
		}
		cycle[i] = level + rng.NormFloat64()*0.1
	}
	a := NewADWIN(0.002)
	cuts := 0
	addCycle := func() {
		for _, x := range cycle {
			if a.Add(x) {
				cuts++
			}
		}
	}
	for i := 0; i < 3; i++ {
		addCycle()
	}
	cuts = 0
	if allocs := testing.AllocsPerRun(1, addCycle); allocs != 0 {
		t.Fatalf("Add allocated %v times per %d-point cycle in steady state", allocs, len(cycle))
	}
	if cuts == 0 {
		t.Fatal("the measured cycle never cut the window; the pin would be vacuous")
	}
}
