package onex

import (
	"math"
	"sync"
	"testing"
)

// sineSeries builds test inputs with controlled shapes: phase-shifted
// sinusoids plus one outlier ramp.
func sineSeries(n, length int) []Series {
	out := make([]Series, 0, n+1)
	for s := 0; s < n; s++ {
		v := make([]float64, length)
		for i := range v {
			v[i] = math.Sin(2*math.Pi*float64(i)/16 + float64(s)*0.2)
		}
		out = append(out, Series{Label: "sine", Values: v})
	}
	ramp := make([]float64, length)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	out = append(out, Series{Label: "ramp", Values: ramp})
	return out
}

func buildFixture(t *testing.T, opts Options) *Base {
	t.Helper()
	if opts.ST == 0 {
		opts.ST = 0.2
	}
	if opts.Lengths == nil {
		opts.Lengths = []int{8, 16, 24}
	}
	b, err := Build("fixture", sineSeries(6, 48), opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build("x", nil, Options{ST: 0.2}); err == nil {
		t.Error("no series: want error")
	}
	if _, err := Build("x", sineSeries(2, 32), Options{}); err == nil {
		t.Error("zero ST: want error")
	}
	if _, err := Build("x", sineSeries(2, 32), Options{ST: -0.5}); err == nil {
		t.Error("negative ST: want error")
	}
	if _, err := Build("x", sineSeries(2, 32), Options{ST: 0.2, CandidateLimit: -1}); err == nil {
		t.Error("negative candidate limit: want error")
	}
	if _, err := Build("x", []Series{{Values: []float64{math.NaN()}}}, Options{ST: 0.2}); err == nil {
		t.Error("NaN data: want error")
	}
	if _, err := Build("x", sineSeries(2, 32), Options{ST: 0.2, Normalize: NormalizeMode(99)}); err == nil {
		t.Error("bad normalize mode: want error")
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	in := sineSeries(2, 32)
	orig := append([]float64(nil), in[0].Values...)
	if _, err := Build("x", in, Options{ST: 0.2, Lengths: []int{8}}); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if in[0].Values[i] != orig[i] {
			t.Fatal("Build mutated caller's data")
		}
	}
}

func TestBestMatchExactAndAny(t *testing.T) {
	b := buildFixture(t, Options{})
	q := make([]float64, 16)
	for i := range q {
		q[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	// The query is shaped like the sines but on the raw scale; the base is
	// normalized, so BestMatch still finds a close warped match.
	m, err := b.BestMatch(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if !found(m) || m.Length != 16 {
		t.Fatalf("exact match = %+v", m)
	}
	if len(m.Values) != 16 {
		t.Errorf("match values length %d", len(m.Values))
	}
	any, err := b.BestMatch(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if !found(any) {
		t.Fatal("any match missing")
	}
	if any.Distance > m.Distance+1e-9 {
		t.Errorf("MatchAny (%v) worse than MatchExact (%v)", any.Distance, m.Distance)
	}
}

func found(m Match) bool { return m.Length > 0 }

func TestBestMatchErrors(t *testing.T) {
	b := buildFixture(t, Options{})
	if _, err := b.BestMatch(nil, MatchExact); err == nil {
		t.Error("empty query: want error")
	}
	if _, err := b.BestMatch(make([]float64, 7), MatchExact); err == nil {
		t.Error("unindexed length: want error")
	}
}

func TestSeasonal(t *testing.T) {
	// A sinusoid repeats every 16 samples: series 0 has recurring length-16
	// patterns at phase-equivalent offsets.
	b := buildFixture(t, Options{})
	ps, err := b.Seasonal(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no recurring patterns for a periodic series")
	}
	for _, p := range ps {
		if len(p.Occurrences) < 2 {
			t.Errorf("pattern with %d occurrences", len(p.Occurrences))
		}
		if p.Length != 16 || len(p.Representative) != 16 {
			t.Errorf("pattern shape wrong: %+v", p)
		}
		for _, o := range p.Occurrences {
			if o.SeriesID != 0 {
				t.Errorf("Seasonal(0) returned occurrence in series %d", o.SeriesID)
			}
		}
	}
	all, err := b.SeasonalAll(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < len(ps) {
		t.Errorf("SeasonalAll (%d) returned fewer patterns than Seasonal (%d)", len(all), len(ps))
	}
	if _, err := b.Seasonal(0, 5); err == nil {
		t.Error("unindexed length: want error")
	}
	if _, err := b.Seasonal(b.NumSeries(), 16); err == nil {
		t.Error("bad series: want error")
	}
	// A negative series id is the dataset-wide form.
	if wide, err := b.Seasonal(-2, 16); err != nil || len(wide) != len(all) {
		t.Errorf("Seasonal(-2): %d patterns, err %v; want SeasonalAll's %d", len(wide), err, len(all))
	}
}

func TestRecommendThreshold(t *testing.T) {
	b := buildFixture(t, Options{})
	s, err := b.RecommendThreshold(Strict, -1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.RecommendThreshold(Medium, -1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := b.RecommendThreshold(Loose, -1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Low != 0 || s.High != m.Low || m.High != l.Low || !math.IsInf(l.High, 1) {
		t.Errorf("ranges not contiguous: S=%v M=%v L=%v", s, m, l)
	}
	if !s.Contains(s.High) || s.Contains(l.Low+1) {
		t.Error("Range.Contains wrong")
	}
	st := b.Stats()
	if b.DegreeOf(0) != Strict {
		t.Error("DegreeOf(0) != Strict")
	}
	if b.DegreeOf(st.STFinal+1) != Loose {
		t.Error("DegreeOf(very large) != Loose")
	}
	if _, err := b.RecommendThreshold(Degree(9), -1); err == nil {
		t.Error("bad degree: want error")
	}
	if _, err := b.RecommendThreshold(Strict, 12345); err == nil {
		t.Error("unindexed length: want error")
	}
	// Local recommendation for an indexed length works.
	if _, err := b.RecommendThreshold(Strict, 16); err != nil {
		t.Errorf("local recommendation failed: %v", err)
	}
}

func TestWithThreshold(t *testing.T) {
	b := buildFixture(t, Options{})
	tighter, err := b.WithThreshold(b.ST() / 2)
	if err != nil {
		t.Fatal(err)
	}
	looser, err := b.WithThreshold(b.ST() * 3)
	if err != nil {
		t.Fatal(err)
	}
	if tighter.Stats().Representatives < b.Stats().Representatives {
		t.Error("splitting lost groups")
	}
	if looser.Stats().Representatives > b.Stats().Representatives {
		t.Error("merging gained groups")
	}
	// Original base unchanged and still queryable.
	q := make([]float64, 16)
	for i := range q {
		q[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	if _, err := b.BestMatch(q, MatchExact); err != nil {
		t.Errorf("original base broken after adaptation: %v", err)
	}
	if _, err := looser.BestMatch(q, MatchExact); err != nil {
		t.Errorf("adapted base cannot answer: %v", err)
	}
	if _, err := b.WithThreshold(-1); err == nil {
		t.Error("negative ST': want error")
	}
}

func TestStats(t *testing.T) {
	b := buildFixture(t, Options{})
	st := b.Stats()
	if st.Representatives <= 0 || st.Subsequences <= 0 || st.IndexBytes <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.STHalf > st.STFinal {
		t.Errorf("STHalf %v > STFinal %v", st.STHalf, st.STFinal)
	}
	if st.BuildTime <= 0 {
		t.Errorf("BuildTime = %v", st.BuildTime)
	}
	ls := b.Lengths()
	if len(ls) != 3 || ls[0] != 8 {
		t.Errorf("Lengths() = %v", ls)
	}
	// Returned slice is a copy.
	ls[0] = 999
	if b.Lengths()[0] == 999 {
		t.Error("Lengths() exposes internal slice")
	}
}

func TestConcurrentQueries(t *testing.T) {
	b := buildFixture(t, Options{})
	q := make([]float64, 16)
	for i := range q {
		q[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if _, err := b.BestMatch(q, MatchAny); err != nil {
					errs <- err
				}
				if _, err := b.Seasonal(0, 16); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDegreeString(t *testing.T) {
	if Strict.String() != "S" || Medium.String() != "M" || Loose.String() != "L" || Degree(7).String() != "?" {
		t.Error("Degree.String mismatch")
	}
}

func TestMatchString(t *testing.T) {
	m := Match{SeriesID: 2, Start: 5, Length: 8, Distance: 0.125}
	if got := m.String(); got != "(X2)^8_5 dist=0.1250" {
		t.Errorf("Match.String() = %q", got)
	}
}

func TestNormalizeModes(t *testing.T) {
	series := sineSeries(3, 32)
	for _, mode := range []NormalizeMode{NormalizeDataset, NormalizePerSeries, NormalizeNone} {
		b, err := Build("m", series, Options{ST: 0.2, Lengths: []int{8}, Normalize: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if b.Stats().Representatives == 0 {
			t.Errorf("mode %d: no groups", mode)
		}
	}
}
