package kernels

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// expFMA is the FMA branch of math.Exp on amd64 (archExp in
// $GOROOT/src/math/exp_amd64.s) written with math.FMA, for the arguments
// whose biased exponent k+0x3FF lies in [1, 0x7FE]; ok is false for every
// other argument, which sigmoidAVX must refuse.
func expFMA(x float64) (e float64, ok bool) {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(log2e * x)
	if !(k >= -1022 && k <= 1023) {
		return 0, false
	}
	t := math.FMA(-k, ln2U, x)
	t = math.FMA(-k, ln2L, t)
	t *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = math.FMA(p, t, c)
	}
	y := t * p
	for i := 0; i < 3; i++ {
		y *= y + 2
	}
	y = math.FMA(y, y+2, 1)
	return y * math.Float64frombits(uint64(int64(k)+0x3FF)<<52), true
}

// TestSigmoidKernelIsExpFMABranch calls sigmoidAVX, sigmoidAVX512 and
// Softmax's expAVX512 directly, whatever the gates decided, on one group of
// specials, bit patterns and N(0, 25) draws: four lanes for sigmoidAVX, one
// to eight for the AVX-512 bodies' masked group. A body must write the
// group exactly when every lane's exponential is in range, must not touch
// the elements after it, and each written lane must equal 1/(1+expFMA(-x))
// (the sigmoids) or expFMA(x) (the exponentials) bit for bit.
func TestSigmoidKernelIsExpFMABranch(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2+FMA on this host")
	}
	type body struct {
		name  string
		run   func([]float64) int
		lanes func(*rand.Rand) int
		ref   func(x float64) (float64, bool)
	}
	sigmoid := func(x float64) (float64, bool) {
		e, ok := expFMA(-x)
		return 1 / (1 + e), ok
	}
	bodies := []body{{"sigmoidAVX", sigmoidAVX, func(*rand.Rand) int { return 4 }, sigmoid}}
	oneToEight := func(rng *rand.Rand) int { return 1 + rng.Intn(8) }
	if hostGates.avx512 {
		bodies = append(bodies, body{"sigmoidAVX512", sigmoidAVX512, oneToEight, sigmoid},
			body{"expAVX512", expAVX512, oneToEight, expFMA})
	}
	for _, body := range bodies {
		rng := rand.New(rand.NewSource(12))
		var taken, refused int
		for round := 0; round < 20000; round++ {
			n := body.lanes(rng)
			var in, out [9]float64
			inRange := true
			for i := range n {
				in[i] = sigmoidInput(rng)
				if round < len(sigmoidSpecials) && i == n-1 {
					in[i] = sigmoidSpecials[round]
				}
				if _, ok := body.ref(in[i]); !ok {
					inRange = false
				}
			}
			for i := n; i < len(in); i++ {
				in[i] = 1 // never touched: past the group
			}
			out = in
			done := body.run(out[:n:n])
			if !inRange {
				refused++
				if done != 0 || !sameBits(out[:], in[:]) {
					t.Fatalf("%s(%v): out-of-range group written (done=%d)", body.name, in[:n], done)
				}
				continue
			}
			taken++
			if done != n || !sameBits(out[n:], in[n:]) {
				t.Fatalf("%s(%v): in-range group not written, or tail touched (done=%d)", body.name, in[:n], done)
			}
			for i := range n {
				if want, _ := body.ref(in[i]); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s(%v) = %v, FMA branch gives %v", body.name, in[i], out[i], want)
				}
			}
		}
		if taken == 0 || refused == 0 {
			t.Fatalf("%s: groups taken %d, refused %d: both paths must be exercised", body.name, taken, refused)
		}
	}
}

// TestAVX512GateMatchesCPU fails when the host can run the AVX-512 bodies
// but the gate is off (or the other way round), so that a host with eight
// float64 lanes cannot silently fall back to four. It reads CPUID leaf 7
// and XCR0 itself, and on Linux also checks them against the kernel's
// /proc/cpuinfo flags, which list avx512f and avx512vl only when the kernel
// has enabled the opmask and ZMM state.
func TestAVX512GateMatchesCPU(t *testing.T) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var f, vl, osZMM bool
	if maxLeaf >= 7 && ecx1&(1<<27) != 0 {
		_, ebx7, _, _ := cpuid(7, 0)
		f, vl = ebx7&(1<<16) != 0, ebx7&(1<<31) != 0
		osZMM = xgetbv0()&0xe6 == 0xe6
	}
	want := useAVX && f && vl && osZMM
	if useAVX512 != want {
		t.Fatalf("useAVX512 = %v, want %v (AVX %v, AVX512F %v, AVX512VL %v, XCR0 opmask/ZMM %v)", useAVX512, want, useAVX, f, vl, osZMM)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		var flags []string
		for _, line := range strings.Split(string(info), "\n") {
			if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				flags = strings.Fields(list)
				break
			}
		}
		if flags != nil {
			has := func(f string) bool { return slices.Contains(flags, f) }
			if kernel := has("avx") && has("popcnt") && has("avx512f") && has("avx512vl"); kernel != useAVX512 {
				t.Fatalf("useAVX512 = %v, but /proc/cpuinfo flags say %v", useAVX512, kernel)
			}
		}
	}
	t.Logf("AVX-512 bodies: %v", useAVX512)
}

// TestSigmoidGate pins when the vector path is on: exactly when the host
// has AVX2 and FMA and GODEBUG leaves math.Exp its FMA branch, and the
// probe inputs really do tell the two branches apart.
func TestSigmoidGate(t *testing.T) {
	godebug := os.Getenv("GODEBUG")
	fmaOff := false
	for _, off := range []string{"cpu.fma=off", "cpu.avx=off", "cpu.all=off"} {
		fmaOff = fmaOff || strings.Contains(godebug, off)
	}
	if want := hasAVX2FMA && !fmaOff; useSigmoidAVX != want {
		t.Fatalf("useSigmoidAVX = %v, want %v (AVX2+FMA %v, GODEBUG %q)", useSigmoidAVX, want, hasAVX2FMA, godebug)
	}
	if want := useSigmoidAVX && useAVX512; useSigmoidAVX512 != want {
		t.Fatalf("useSigmoidAVX512 = %v, want %v (useSigmoidAVX %v, useAVX512 %v)", useSigmoidAVX512, want, useSigmoidAVX, useAVX512)
	}
	differ := 0
	for _, x := range sigmoidProbeInputs {
		e, ok := expFMA(-x)
		if !ok {
			t.Fatalf("probe input %v is outside the vector range", x)
		}
		if e != math.Exp(-x) {
			differ++
		}
	}
	if (differ == 0) != !fmaOff {
		t.Fatalf("%d of %d probe inputs differ from math.Exp's FMA branch with GODEBUG %q", differ, len(sigmoidProbeInputs), godebug)
	}
}

// TestSoftmaxGate shows that Softmax's vector exponential is off whenever
// the sigmoid probe fails. It shares the eight-lane sigmoid's gate, which
// TestSigmoidGate pins to AVX2 and FMA on the host and math.Exp taking its
// FMA branch; under GODEBUG cpu.fma=off every argument of softmaxProbeArgs
// has a math.Exp result that expAVX512 cannot produce, so a softmax over
// them that still ran it would differ from the scalar reference in the last
// bit.
func TestSoftmaxGate(t *testing.T) {
	fmaOff := false
	for _, off := range []string{"cpu.fma=off", "cpu.avx=off", "cpu.all=off"} {
		fmaOff = fmaOff || strings.Contains(os.Getenv("GODEBUG"), off)
	}
	differ := 0
	for _, x := range softmaxProbeArgs {
		if e, ok := expFMA(x); !ok || e != math.Exp(x) {
			differ++
		}
	}
	if fmaBranch := hasAVX2FMA && !fmaOff; (differ == 0) != fmaBranch {
		t.Fatalf("%d of %d softmax probe arguments differ from math.Exp's FMA branch, which it takes: %v", differ, len(softmaxProbeArgs), fmaBranch)
	}
	// One tile of rows {0, x}: each row's maximum is 0, so its exponent
	// arguments are 0 and a probe argument, and the tile's sixteen fill two
	// eight-lane groups.
	tile := make([]float64, 2*len(softmaxProbeArgs))
	for i, x := range softmaxProbeArgs {
		tile[2*i+1] = x
	}
	want := append([]float64(nil), tile...)
	for r := 0; r < len(want); r += 2 {
		naiveSoftmax(want[r : r+2])
	}
	Softmax(tile, 2)
	if !sameBits(tile, want) {
		t.Fatalf("Softmax diverged from math.Exp's branch with the vector gate %v (cpu.fma off %v)", useSigmoidAVX512, fmaOff)
	}
}
