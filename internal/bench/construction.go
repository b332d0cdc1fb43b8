package bench

import (
	"fmt"
	"time"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/shard"
)

// stSweep is the similarity-threshold sweep of Figs. 5 and 6.
var stSweep = []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}

// constructionPoint measures one (dataset, ST) offline build.
type constructionPoint struct {
	buildTime time.Duration
	reps      int
	subseq    int64
	sizeBytes int64
}

func (s *Session) buildPoint(name string, st float64) (constructionPoint, error) {
	sp, ok := dataset.ByName(name)
	if !ok {
		return constructionPoint{}, fmt.Errorf("%w: %q", errUnknownDataset, name)
	}
	w, err := buildWorkload(sp, s.cfg)
	if err != nil {
		return constructionPoint{}, err
	}
	eng, err := shard.Build(w.Data, core.BuildConfig{
		ST:        st,
		Lengths:   w.Lengths,
		Seed:      s.cfg.Seed,
		Normalize: core.NormalizeNone,
	}, 0, nil)
	if err != nil {
		return constructionPoint{}, err
	}
	return constructionPoint{
		buildTime: eng.BuildTime(),
		reps:      eng.TotalGroups(),
		subseq:    eng.TotalSubseq(),
		sizeBytes: eng.SizeBytes(),
	}, nil
}

// runFig5 regenerates Fig. 5: offline construction time vs ST per dataset.
func runFig5(s *Session) ([]Table, error) {
	return s.sweepTable(
		"Fig 5: offline construction time (s) varying similarity threshold",
		func(p constructionPoint) string { return secs(p.buildTime.Seconds()) },
	)
}

// runFig6 regenerates Fig. 6: number of representatives vs ST per dataset.
func runFig6(s *Session) ([]Table, error) {
	return s.sweepTable(
		"Fig 6: number of representatives varying similarity threshold",
		func(p constructionPoint) string { return fmt.Sprintf("%d", p.reps) },
	)
}

func (s *Session) sweepTable(title string, cell func(constructionPoint) string) ([]Table, error) {
	names, err := s.selectedDatasets()
	if err != nil {
		return nil, err
	}
	t := Table{Title: title, Header: []string{"Dataset"}}
	for _, st := range stSweep {
		t.Header = append(t.Header, fmt.Sprintf("ST=%.1f", st))
	}
	for _, name := range names {
		row := []string{name}
		for _, st := range stSweep {
			s.cfg.progressf("  %s ST=%.1f…", name, st)
			p, err := s.buildPoint(name, st)
			if err != nil {
				return nil, err
			}
			row = append(row, cell(p))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// runTable4 regenerates Table 4: representatives, total subsequences and
// index size (MB) per dataset at the experiment threshold.
func runTable4(s *Session) ([]Table, error) {
	names, err := s.selectedDatasets()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  fmt.Sprintf("Table 4: representatives, subsequences and size (MB) at ST=%.2f", s.cfg.ST),
		Header: []string{"DataSet", "Representatives", "Subsequences", "Size in MB"},
	}
	for _, name := range names {
		s.cfg.progressf("  %s: table4 build…", name)
		p, err := s.buildPoint(name, s.cfg.ST)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", p.reps),
			fmt.Sprintf("%d", p.subseq),
			fmt.Sprintf("%.2f", float64(p.sizeBytes)/(1<<20)),
		})
	}
	return []Table{t}, nil
}
