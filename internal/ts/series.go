// Package ts provides the time-series substrate for ONEX: series and dataset
// types, zero-copy subsequence views, and the normalization schemes used by
// the paper (dataset-level min-max scaling, Sec. 6.1) and by the Trillion
// baseline (per-window z-normalization).
//
// Conventions follow the paper's Definition 1: a subsequence (Xp)^i_j is the
// run of length i starting at 0-based position j of series Xp. All values are
// float64; series inside a Dataset may have different lengths.
package ts

import (
	"errors"
	"fmt"
	"math"
)

// Series is a single time series: an ordered sequence of real values with an
// identifier unique within its Dataset and an optional class label (UCR
// datasets carry one; synthetic generators use it to record the template).
type Series struct {
	// ID is the index of the series within its dataset.
	ID int
	// Label is an optional class label (e.g. the UCR class column).
	Label string
	// Values holds the observations in time order.
	Values []float64
}

// Len returns the number of observations in the series.
func (s *Series) Len() int { return len(s.Values) }

// AppendPoints grows the series in time: the observations are appended after
// the existing ones, always onto a freshly-owned backing array — never in
// place — so growing a series can never write through an array shared with
// another dataset (see Dataset.CloneShared). Existing Subseq views stay
// valid (their windows are unchanged); the new windows a grown series
// exposes are enumerated with NewWindowStarts.
func (s *Series) AppendPoints(points ...float64) {
	owned := make([]float64, 0, len(s.Values)+len(points))
	s.Values = append(append(owned, s.Values...), points...)
}

// NewWindowStarts returns the half-open start range [lo, hi) of the
// length-sized subsequence windows that exist now but did not when the series
// was oldLen points long — exactly the windows overlapping the appended
// suffix. lo == hi when growing past oldLen created no new window of this
// length (series still shorter than length).
func (s *Series) NewWindowStarts(oldLen, length int) (lo, hi int) {
	if length <= 0 || oldLen < 0 {
		panic(fmt.Sprintf("ts: invalid window derivation (oldLen=%d, length=%d)", oldLen, length))
	}
	lo = oldLen - length + 1
	if lo < 0 {
		lo = 0
	}
	hi = len(s.Values) - length + 1
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Sub returns the subsequence view (s)^length_start. It panics if the range
// is out of bounds, mirroring slice semantics; callers that work with
// untrusted indices should validate with CheckRange first.
func (s *Series) Sub(start, length int) Subseq {
	if start < 0 || length <= 0 || start+length > len(s.Values) {
		panic(fmt.Sprintf("ts: subsequence [%d:%d+%d) out of range for series %d of length %d",
			start, start, length, s.ID, len(s.Values)))
	}
	return Subseq{Series: s, Start: start, Length: length}
}

// CheckRange reports whether [start, start+length) is a valid subsequence
// range for the series.
func (s *Series) CheckRange(start, length int) bool {
	return start >= 0 && length > 0 && start <= len(s.Values)-length
}

// Subseq is a zero-copy view of a contiguous run of a parent series. The
// ONEX base stores millions of these, so the representation is deliberately
// three words plus a pointer: no value data is duplicated.
type Subseq struct {
	Series *Series
	Start  int
	Length int
}

// Values returns the underlying data window. The slice aliases the parent
// series; callers must not mutate it.
func (ss Subseq) Values() []float64 {
	return ss.Series.Values[ss.Start : ss.Start+ss.Length]
}

// End returns the exclusive end position of the view in the parent series.
func (ss Subseq) End() int { return ss.Start + ss.Length }

// String implements fmt.Stringer using the paper's (Xp)^i_j notation.
func (ss Subseq) String() string {
	return fmt.Sprintf("(X%d)^%d_%d", ss.Series.ID, ss.Length, ss.Start)
}

// Dataset is a collection of series, optionally normalized. The zero value
// is an empty dataset ready to use.
type Dataset struct {
	// Name identifies the dataset in reports (e.g. "ItalyPower").
	Name string
	// Series holds the member series; Series[i].ID == i is maintained by
	// NewDataset and Append.
	Series []*Series
}

// NewDataset builds a dataset from raw value rows, assigning IDs by position.
func NewDataset(name string, rows [][]float64) *Dataset {
	d := &Dataset{Name: name, Series: make([]*Series, 0, len(rows))}
	for _, row := range rows {
		d.Append("", row)
	}
	return d
}

// Append adds a series, assigning the next ID, and returns it.
func (d *Dataset) Append(label string, values []float64) *Series {
	s := &Series{ID: len(d.Series), Label: label, Values: values}
	d.Series = append(d.Series, s)
	return s
}

// N returns the number of series in the dataset.
func (d *Dataset) N() int { return len(d.Series) }

// AppendPoints grows an existing series of the dataset in time, validating
// the target and the points (streaming ingestion rejects non-finite values at
// the boundary instead of corrupting the index). Like Series.AppendPoints it
// always reallocates onto an owned array, so it is safe on CloneShared
// clones whatever the shared array's spare capacity.
func (d *Dataset) AppendPoints(seriesID int, points []float64) error {
	if seriesID < 0 || seriesID >= len(d.Series) {
		return fmt.Errorf("ts: series %d out of range [0,%d)", seriesID, len(d.Series))
	}
	if len(points) == 0 {
		return errors.New("ts: no points to append")
	}
	if i := CheckFinite(points); i >= 0 {
		return fmt.Errorf("ts: non-finite appended value %v at index %d", points[i], i)
	}
	d.Series[seriesID].AppendPoints(points...)
	return nil
}

// CheckFinite returns the index of the first NaN or ±Inf in values, or -1
// when every value is finite — the shared ingestion-boundary check.
func CheckFinite(values []float64) int {
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// MaxLen returns the length of the longest series (0 for an empty dataset).
func (d *Dataset) MaxLen() int {
	m := 0
	for _, s := range d.Series {
		if s.Len() > m {
			m = s.Len()
		}
	}
	return m
}

// SubseqCount returns the total number of subsequences of the given lengths
// across all series — the cardinality the paper's Table 4 reports. A nil
// lengths slice counts every length from 2 to each series' length, matching
// the paper's N·n(n−1)/2 accounting.
func (d *Dataset) SubseqCount(lengths []int) int64 {
	var total int64
	for _, s := range d.Series {
		n := s.Len()
		if lengths == nil {
			// sum over i=2..n of (n-i+1) = n(n-1)/2
			total += int64(n) * int64(n-1) / 2
			continue
		}
		for _, l := range lengths {
			if l >= 1 && l <= n {
				total += int64(n - l + 1)
			}
		}
	}
	return total
}

// Validate checks the dataset for conditions that would corrupt a build:
// no series, empty series, or non-finite values.
func (d *Dataset) Validate() error {
	if len(d.Series) == 0 {
		return errors.New("ts: dataset has no series")
	}
	for _, s := range d.Series {
		if s.Len() == 0 {
			return fmt.Errorf("ts: series %d is empty", s.ID)
		}
		if i := CheckFinite(s.Values); i >= 0 {
			return fmt.Errorf("ts: series %d has non-finite value %v at index %d", s.ID, s.Values[i], i)
		}
	}
	return nil
}

// Clone returns a deep copy of the dataset. Normalization helpers operate on
// copies so the raw data can be retained alongside the normalized view.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Name: d.Name, Series: make([]*Series, len(d.Series))}
	for i, s := range d.Series {
		v := make([]float64, len(s.Values))
		copy(v, s.Values)
		out.Series[i] = &Series{ID: s.ID, Label: s.Label, Values: v}
	}
	return out
}

// CloneShared returns a copy-on-write clone: fresh Series headers sharing
// the receiver's value arrays. It is the right clone for incremental base
// maintenance, where existing observations are immutable and only appended
// data is new — cloning stays O(series count) instead of O(total points).
// Callers must not mutate existing windows through either dataset; grow
// series only via Dataset.AppendPoints, which always reallocates onto an
// owned array so a shared one is never written.
func (d *Dataset) CloneShared() *Dataset {
	out := &Dataset{Name: d.Name, Series: make([]*Series, len(d.Series))}
	for i, s := range d.Series {
		out.Series[i] = &Series{ID: s.ID, Label: s.Label, Values: s.Values}
	}
	return out
}
