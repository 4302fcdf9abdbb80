package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestFFTKnownSpectra(t *testing.T) {
	// Pure cosine at bin 2 over 8 samples: energy concentrated at k=2.
	n := 8
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Cos(2 * math.Pi * 2 * float64(i) / float64(n))
	}
	FFT(re, im)
	for k := 0; k < n; k++ {
		mag := math.Hypot(re[k], im[k])
		want := 0.0
		if k == 2 || k == n-2 {
			want = float64(n) / 2
		}
		if math.Abs(mag-want) > 1e-9 {
			t.Fatalf("bin %d magnitude %v, want %v", k, mag, want)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// An impulse has a flat spectrum.
	re := []float64{1, 0, 0, 0}
	im := make([]float64, 4)
	FFT(re, im)
	for k := range re {
		if math.Abs(math.Hypot(re[k], im[k])-1) > 1e-12 {
			t.Fatalf("bin %d not flat", k)
		}
	}
}

func TestFFTValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch": func() { FFT(make([]float64, 4), make([]float64, 3)) },
		"not-pow2": func() { FFT(make([]float64, 6), make([]float64, 6)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// n=1 and n=0 are no-ops.
	FFT([]float64{5}, []float64{0})
	FFT(nil, nil)
}

// Property: Parseval's theorem — energy is preserved up to the 1/n factor.
func TestFFTParsevalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				return true
			}
			for math.Abs(raw[i]) > 1e6 {
				raw[i] /= 1e6
			}
		}
		n := nextPow2(len(raw))
		re := make([]float64, n)
		im := make([]float64, n)
		copy(re, raw)
		var timeE float64
		for _, v := range re {
			timeE += v * v
		}
		FFT(re, im)
		var freqE float64
		for i := range re {
			freqE += re[i]*re[i] + im[i]*im[i]
		}
		return math.Abs(freqE/float64(n)-timeE) <= 1e-6*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpectralMagnitudeShiftInvariance(t *testing.T) {
	n := 256
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2*math.Pi*8*float64(i)/float64(n)) + 0.5*math.Cos(2*math.Pi*20*float64(i)/float64(n))
	}
	shifted := make([]float64, n)
	copy(shifted, sig[32:])
	copy(shifted[n-32:], sig[:32]) // circular shift
	a := SpectralMagnitude(sig)
	b := SpectralMagnitude(shifted)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("bin %d: %v vs %v — magnitude should be shift invariant", i, a[i], b[i])
		}
	}
	if SpectralMagnitude(nil) != nil {
		t.Fatal("empty input")
	}
}

func TestSpectralPreprocessor(t *testing.T) {
	p := SpectralPreprocessor{TargetLen: 128}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 27000 + 500*math.Sin(float64(i)*0.2)
	}
	out := p.Apply(xs)
	if len(out) == 0 {
		t.Fatal("empty features")
	}
	var mean float64
	for _, v := range out {
		mean += v
	}
	mean /= float64(len(out))
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("not z-scored: mean %v", mean)
	}
	// Constant input → zero variance → all-zero features, no NaN.
	flat := p.Apply(make([]float64, 64))
	for _, v := range flat {
		if math.IsNaN(v) {
			t.Fatal("NaN on constant input")
		}
	}
}

func TestSpectralCentroidOnSynthetic(t *testing.T) {
	// Classes distinguished by oscillation frequency, with random phase
	// shifts per trace: the time-domain centroid struggles, the spectral
	// one does not.
	rng := sim.NewStream(9, "spec")
	d := synthSpectralDataset(t, rng, 4, 12, 256)
	sc := &SpectralCentroid{Prep: SpectralPreprocessor{TargetLen: 256}}
	if acc := holdoutEval(t, sc, d); acc < 0.9 {
		t.Fatalf("spectral accuracy = %v, want >= 0.9", acc)
	}
	nc := &NearestCentroid{Prep: Preprocessor{TargetLen: 256}}
	timeAcc := holdoutEval(t, nc, d)
	specAcc := holdoutEval(t, sc, d)
	if specAcc <= timeAcc {
		t.Fatalf("spectral %v should beat time-domain %v on phase-shifted data", specAcc, timeAcc)
	}
	if sc.Name() == "" {
		t.Fatal("name")
	}
}

func synthSpectralDataset(t testing.TB, rng *sim.Stream, classes, perClass, n int) *trace.Store {
	var trs []trace.Trace
	for c := 0; c < classes; c++ {
		freq := float64(4 + c*7)
		for k := 0; k < perClass; k++ {
			phase := rng.Uniform(0, 2*math.Pi)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = 27000 +
					2000*math.Sin(2*math.Pi*freq*float64(i)/float64(n)+phase) +
					rng.Normal(0, 300)
			}
			trs = append(trs, trace.Trace{Domain: "spec", Label: c, Values: vals})
		}
	}
	return storeOf(t, classes, trs)
}
