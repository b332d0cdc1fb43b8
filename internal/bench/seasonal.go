package bench

import (
	"context"
	"math/rand"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
	"onex/internal/shard"
)

// runFig4 regenerates Fig. 4: seasonal-similarity query time per dataset for
// the user-driven case (5 random sample series × 5 lengths, averaged) and
// the data-driven case (5 random lengths). Standard DTW, PAA and Trillion
// cannot answer this query class (Sec. 6.2.2), so only ONEX appears.
func runFig4(s *Session) ([]Table, error) {
	names, err := s.selectedDatasets()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Fig 4: seasonal similarity query time (s)",
		Header: []string{"Dataset", "Seasonal-Sample TS", "Seasonal-All TS"},
	}
	const nSeries, nLengths = 5, 5
	for _, name := range names {
		sp, _ := dataset.ByName(name)
		s.cfg.progressf("  %s: seasonal…", name)
		w, err := buildWorkload(sp, s.cfg)
		if err != nil {
			return nil, err
		}
		eng, err := shard.Build(w.Data, core.BuildConfig{
			ST:        s.cfg.ST,
			Lengths:   w.Lengths,
			Seed:      s.cfg.Seed,
			Normalize: core.NormalizeNone,
		}, 0, nil)
		if err != nil {
			return nil, err
		}
		r := rand.New(rand.NewSource(s.cfg.Seed + 13))
		pickLen := func() int { return w.Lengths[r.Intn(len(w.Lengths))] }

		// User-driven: sample series × lengths.
		var sampleTime float64
		for i := 0; i < nSeries; i++ {
			sid := r.Intn(w.Data.N())
			for j := 0; j < nLengths; j++ {
				l := pickLen()
				sec, err := timeIt(s.cfg.Repeats, func() error {
					return eng.Exec(context.Background(), query.Request{Family: query.FamilySeasonal, SeriesID: sid, Length: l}).Err
				})
				if err != nil {
					return nil, err
				}
				sampleTime += sec
			}
		}
		sampleTime /= nSeries * nLengths

		// Data-driven: lengths only.
		var allTime float64
		for j := 0; j < nLengths; j++ {
			l := pickLen()
			sec, err := timeIt(s.cfg.Repeats, func() error {
				return eng.Exec(context.Background(), query.Request{Family: query.FamilySeasonal, SeriesID: -1, Length: l}).Err
			})
			if err != nil {
				return nil, err
			}
			allTime += sec
		}
		allTime /= nLengths

		t.Rows = append(t.Rows, []string{name, secs(sampleTime), secs(allTime)})
	}
	return []Table{t}, nil
}
