package kernels

import (
	"math"
	"math/rand"
	"os"
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

// TestSigmoidKernelIsExpFMABranch calls sigmoidAVX directly, whatever the
// gate decided, on groups of specials, bit patterns and N(0, 25) draws: it
// must write a group exactly when every lane is in range, and each written
// lane must equal 1/(1+expFMA(-x)) bit for bit.
func TestSigmoidKernelIsExpFMABranch(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2+FMA on this host")
	}
	rng := rand.New(rand.NewSource(12))
	var taken, refused int
	for round := 0; round < 20000; round++ {
		var in, out [5]float64
		inRange := true
		for i := range 4 {
			in[i] = sigmoidInput(rng)
			if round < len(sigmoidSpecials) && i == 3 {
				in[i] = sigmoidSpecials[round]
			}
			if _, ok := expFMA(-in[i]); !ok {
				inRange = false
			}
		}
		in[4] = 1 // never touched: the kernel leaves tails to the caller
		out = in
		done := sigmoidAVX(out[:])
		if !inRange {
			refused++
			if done != 0 || !sameBits(out[:], in[:]) {
				t.Fatalf("%v: out-of-range group written (done=%d)", in[:4], done)
			}
			continue
		}
		taken++
		if done != 4 || out[4] != 1 {
			t.Fatalf("%v: in-range group not written, or tail touched (done=%d)", in[:4], done)
		}
		for i := range 4 {
			e, _ := expFMA(-in[i])
			if want := 1 / (1 + e); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("sigmoidAVX(%v) = %v, FMA branch gives %v", in[i], out[i], want)
			}
		}
	}
	if taken == 0 || refused == 0 {
		t.Fatalf("groups taken %d, refused %d: both paths must be exercised", taken, refused)
	}
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
