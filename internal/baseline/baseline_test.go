package baseline

import (
	"math"
	"testing"

	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/ts"
)

func testData(t *testing.T) *ts.Dataset {
	t.Helper()
	d := dataset.ItalyPower.Scaled(0.3).Generate(12)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	return d
}

// naiveBest is an independent exhaustive search with no early abandoning.
func naiveBest(d *ts.Dataset, q []float64, lengths []int) Match {
	var ws dist.Workspace
	best := Match{Dist: math.Inf(1)}
	for _, l := range lengths {
		div := dist.NormalizedDTWDivisor(len(q), l)
		for _, s := range d.Series {
			for j := 0; j+l <= s.Len(); j++ {
				raw := ws.DTW(q, s.Values[j:j+l])
				if nd := raw / div; nd < best.Dist {
					best = Match{SeriesID: s.ID, Start: j, Length: l, Dist: nd, RawDTW: raw}
				}
			}
		}
	}
	return best
}

func TestNewBruteForceValidation(t *testing.T) {
	if _, err := NewBruteForce(nil); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, err := NewBruteForce(&ts.Dataset{}); err == nil {
		t.Error("empty dataset: want error")
	}
}

func TestBruteForceMatchesNaive(t *testing.T) {
	d := testData(t)
	bf, err := NewBruteForce(d)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{5, 9}
	for qi := 0; qi < 5; qi++ {
		q := append([]float64(nil), d.Series[qi].Values[qi:qi+9]...)
		q[qi%9] += 0.1 // push out of dataset
		got, err := bf.BestMatch(q, lengths)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveBest(d, q, lengths)
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("query %d: bruteforce %v != naive %v", qi, got.Dist, want.Dist)
		}
	}
}

func TestBruteForceInDatasetQueryIsZero(t *testing.T) {
	d := testData(t)
	bf, _ := NewBruteForce(d)
	q := append([]float64(nil), d.Series[3].Values[2:10]...)
	m, err := bf.BestMatchSameLength(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist > 1e-12 {
		t.Errorf("in-dataset query dist = %v, want 0", m.Dist)
	}
	if m.Length != 8 {
		t.Errorf("length = %d, want 8", m.Length)
	}
}

func TestBruteForceErrors(t *testing.T) {
	d := testData(t)
	bf, _ := NewBruteForce(d)
	if _, err := bf.BestMatch(nil, []int{4}); err == nil {
		t.Error("empty query: want error")
	}
	if _, err := bf.BestMatch([]float64{math.Inf(1)}, []int{4}); err == nil {
		t.Error("Inf query: want error")
	}
	if _, err := bf.BestMatch([]float64{1, 2}, []int{-1}); err == nil {
		t.Error("bad length: want error")
	}
	if _, err := bf.BestMatch([]float64{1, 2}, []int{10_000}); err == nil {
		t.Error("too-long length: want error")
	}
}

func TestBruteForceNilLengthsScansAll(t *testing.T) {
	d := ts.NewDataset("t", [][]float64{{0, 0.5, 1, 0.5, 0}})
	bf, _ := NewBruteForce(d)
	q := []float64{0.5, 1, 0.5}
	m, err := bf.BestMatch(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist > 1e-12 {
		t.Errorf("dist = %v, want exact 0 (q is a subsequence)", m.Dist)
	}
}

func TestReduce(t *testing.T) {
	got := Reduce(nil, []float64{1, 3, 2, 4, 10}, 2)
	want := []float64{2, 3, 10} // frames (1,3),(2,4),(10)
	if len(got) != len(want) {
		t.Fatalf("Reduce = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Reduce = %v, want %v", got, want)
		}
	}
}

func TestReducedDim(t *testing.T) {
	cases := [][3]int{{8, 2, 4}, {9, 2, 5}, {5, 8, 1}, {16, 8, 2}}
	for _, c := range cases {
		if got := reducedDim(c[0], c[1]); got != c[2] {
			t.Errorf("reducedDim(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestNewPAAValidation(t *testing.T) {
	d := testData(t)
	if _, err := NewPAA(nil, []int{4}, 2); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, err := NewPAA(d, []int{4}, -3); err == nil {
		t.Error("negative compression: want error")
	}
	if _, err := NewPAA(d, []int{0}, 2); err == nil {
		t.Error("invalid length: want error")
	}
	if _, err := NewPAA(d, []int{10_000}, 2); err == nil {
		t.Error("no candidates: want error")
	}
}

func TestPAAFindsReasonableMatch(t *testing.T) {
	d := testData(t)
	p, err := NewPAA(d, []int{8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := NewBruteForce(d)
	q := append([]float64(nil), d.Series[5].Values[4:12]...)
	got, err := p.BestMatch(q)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := bf.BestMatch(q, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist < exact.Dist-1e-9 {
		t.Fatalf("PAA %v better than exact %v (impossible)", got.Dist, exact.Dist)
	}
	// PDTW is approximate but must stay in the neighbourhood of the truth.
	if got.Dist > exact.Dist+0.2 {
		t.Errorf("PAA dist %v far from exact %v", got.Dist, exact.Dist)
	}
	// The reported distance must be reproducible from the location.
	v := d.Series[got.SeriesID].Values[got.Start : got.Start+got.Length]
	if math.Abs(dist.NormalizedDTW(q, v)-got.Dist) > 1e-9 {
		t.Error("PAA reported dist does not match its location")
	}
}

func TestPAACompressionOneIsNearExact(t *testing.T) {
	// With compression 1 the reduced space is the original space, so PDTW
	// degenerates to the exact same-length scan.
	d := testData(t)
	p, err := NewPAA(d, []int{6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := NewBruteForce(d)
	q := append([]float64(nil), d.Series[2].Values[3:9]...)
	q[0] += 0.07
	got, _ := p.BestMatch(q)
	exact, _ := bf.BestMatch(q, []int{6})
	if math.Abs(got.Dist-exact.Dist) > 1e-9 {
		t.Errorf("compression-1 PAA %v != exact %v", got.Dist, exact.Dist)
	}
}

func TestPAADefaultCompression(t *testing.T) {
	d := testData(t)
	p, err := NewPAA(d, []int{16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.compression != DefaultCompression {
		t.Errorf("compression = %d, want %d", p.compression, DefaultCompression)
	}
}

func TestNewTrillionValidation(t *testing.T) {
	d := testData(t)
	if _, err := NewTrillion(nil, TrillionConfig{}); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, err := NewTrillion(d, TrillionConfig{WindowFrac: -0.5}); err == nil {
		t.Error("negative window: want error")
	}
	tr, err := NewTrillion(d, TrillionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.cfg.WindowFrac != DefaultWindowFrac {
		t.Errorf("default window frac = %v", tr.cfg.WindowFrac)
	}
}

func TestTrillionExactInRawUnconstrainedMode(t *testing.T) {
	// With z-normalization off and the band disabled the cascade must be
	// fully admissible: Trillion's result equals brute force exactly.
	d := testData(t)
	tr, err := NewTrillion(d, TrillionConfig{WindowFrac: 1, RawSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := NewBruteForce(d)
	for qi := 0; qi < 5; qi++ {
		q := append([]float64(nil), d.Series[qi*2].Values[qi:qi+10]...)
		q[qi] += float64(0.05 * float64(qi+1))
		got, err := tr.BestMatch(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := bf.BestMatchSameLength(q)
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("query %d: trillion %v != bruteforce %v", qi, got.Dist, want.Dist)
		}
	}
}

func TestTrillionInDatasetQuery(t *testing.T) {
	// A window copied verbatim from the data is its own best z-normalized
	// match, so Trillion finds a perfect (distance-0) answer.
	d := testData(t)
	tr, _ := NewTrillion(d, TrillionConfig{})
	q := append([]float64(nil), d.Series[7].Values[3:13]...)
	m, err := tr.BestMatch(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist > 1e-9 {
		t.Errorf("in-dataset query dist = %v, want 0", m.Dist)
	}
}

func TestTrillionQueryLongerThanSeries(t *testing.T) {
	d := ts.NewDataset("t", [][]float64{{1, 2, 3}})
	tr, _ := NewTrillion(d, TrillionConfig{})
	if _, err := tr.BestMatch(make([]float64, 10)); err == nil {
		t.Error("over-long query: want error")
	}
}

func TestTrillionConstantWindows(t *testing.T) {
	// Zero-variance windows must not produce NaNs.
	d := ts.NewDataset("t", [][]float64{{5, 5, 5, 5, 5, 5}})
	tr, _ := NewTrillion(d, TrillionConfig{})
	m, err := tr.BestMatch([]float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.Dist) {
		t.Error("constant-window search produced NaN")
	}
}

func TestTrillionZNormChangesSpace(t *testing.T) {
	// A query that is a scaled+offset copy of a window matches it perfectly
	// in z-space but not in raw space — the mechanism behind Trillion's
	// accuracy drop on out-of-dataset queries (Sec. 6.2.1).
	base := []float64{0, 1, 0, 2, 0, 1, 0}
	shifted := make([]float64, len(base))
	for i, v := range base {
		shifted[i] = float64(3*v) + 10
	}
	d := ts.NewDataset("t", [][]float64{base, {9, 9, 9, 9, 9, 9, 9}})
	tr, _ := NewTrillion(d, TrillionConfig{WindowFrac: 1})
	m, err := tr.BestMatch(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if m.SeriesID != 0 || m.Start != 0 {
		t.Errorf("z-norm search picked %d/%d, want the shape-identical window 0/0", m.SeriesID, m.Start)
	}
	if m.Dist < 1 {
		t.Errorf("raw-space distance should be large, got %v", m.Dist)
	}
}
