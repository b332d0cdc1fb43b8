package dist

import (
	"math"
	"testing"
)

// TestZeroVarianceInputs pins the kernel's semantics for constant (zero-
// variance) sequences: every distance and lower bound stays finite — the
// kernel itself never divides by a variance, so constant inputs are ordinary
// values. (Per-window z-normalization, which does divide by σ, lives in
// ts.ZNormalize and maps constant windows to all-zeros by the UCR
// convention; baseline.Trillion applies the same rule inline.)
func TestZeroVarianceInputs(t *testing.T) {
	flat := []float64{3, 3, 3, 3, 3, 3}
	flat2 := []float64{-1, -1, -1, -1, -1, -1}
	wave := []float64{3, 4, 2, 3, 5, 1}

	checkFinite := func(name string, v float64) {
		t.Helper()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on zero-variance input", name, v)
		}
	}
	if d := ED(flat, flat); d != 0 {
		t.Errorf("ED(flat, flat) = %v, want 0", d)
	}
	if d := NormalizedED(flat, flat); d != 0 {
		t.Errorf("NormalizedED(flat, flat) = %v, want 0", d)
	}
	checkFinite("ED(flat, flat2)", ED(flat, flat2))
	checkFinite("NormalizedED(flat, wave)", NormalizedED(flat, wave))

	var ws Workspace
	if d := ws.DTW(flat, flat); d != 0 {
		t.Errorf("DTW(flat, flat) = %v, want 0", d)
	}
	checkFinite("DTW(flat, wave)", ws.DTW(flat, wave))
	checkFinite("NormalizedDTW(flat, flat2)", NormalizedDTW(flat, flat2))
	checkFinite("LBKim(flat, wave)", LBKim(flat, wave))

	u, l := Envelope(flat, len(flat), nil, nil)
	for i := range u {
		if u[i] != flat[i] || l[i] != flat[i] {
			t.Fatalf("envelope of a constant sequence must collapse onto it (got [%v,%v] at %d)", l[i], u[i], i)
		}
	}
	checkFinite("LBKeogh(wave, flatEnv)", LBKeoghOrdered(wave, u, l, QueryOrder(wave), math.Inf(1)))

	// The DTW of two constants is √n·|a−b| (every path step pays the same).
	want := float64(math.Sqrt(6) * 4)
	if d := ws.DTW(flat, flat2); math.Abs(d-want) > 1e-12 {
		t.Errorf("DTW(flat, flat2) = %v, want %v", d, want)
	}
}
