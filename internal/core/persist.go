package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"onex/internal/grouping"
	"onex/internal/query"
	"onex/internal/ts"
)

// The on-disk format is a little-endian stream:
//
//	magic "ONEXBASE" | version u32 | header | metadata | dataset | groups | crc32
//
// The header carries the build parameters (ST, seed, normalization and its
// min/max, query options, the rebuild-drift threshold, the shard count and —
// version 5 — the DcTopK retention knob); the metadata carries the Save
// wall-clock timestamp, the original offline build time and the configured
// length restriction, so catalogs (internal/hub) can report a reloaded base
// exactly as the built one. Groups store representatives and member lists
// verbatim (preserving the exact drift state of Algorithm 1's running
// averages) after the subsequence and incremental-member counters, so the
// streaming-append drift and its amortized-rebuild policy survive a round
// trip. Everything else — the per-shard restrictions and the index layers
// (sparse Dc neighbor lists, envelopes, SP-Space) — is derived state,
// recomputed on load: pure functions of the groups, the shard count and the
// retention knob, cheaper to recompute than to store for every length.
//
// The current version and the one before it load: a version-4 stream lacks
// only DcTopK and gets the default retention (harmless: query answers are
// retention-invariant, see the rspace package doc). Older versions answer
// ErrBadVersion.
const (
	persistMagic      = "ONEXBASE"
	persistVersion    = 5
	persistMinVersion = 4
)

var (
	// ErrBadFormat reports a stream that is not an ONEX base.
	ErrBadFormat = errors.New("core: not an ONEX base stream")
	// ErrBadVersion reports an unsupported format version.
	ErrBadVersion = errors.New("core: unsupported ONEX base version")
	// ErrCorrupt reports a checksum mismatch.
	ErrCorrupt = errors.New("core: ONEX base stream corrupted (checksum mismatch)")
)

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Snapshot is the decoded persistent state of an engine: everything a
// Save stream carries.
type Snapshot struct {
	// Shards is the serving layout's shard count (≥ 1).
	Shards int
	// Cfg is the build configuration (ST, seed, lengths, query options…).
	Cfg BuildConfig
	// NormMin/NormMax record the dataset-wide scaling applied at build.
	NormMin, NormMax float64
	// SavedAt is the Save wall-clock timestamp (ignored by EncodeSnapshot,
	// which stamps the current time).
	SavedAt time.Time
	// BuildTime is the original offline construction cost.
	BuildTime time.Duration
	// Dataset is the normalized dataset the base indexes.
	Dataset *ts.Dataset
	// Grouped is the (global) grouping result, drift counters included.
	Grouped *grouping.Result
}

// EncodeSnapshot writes one snapshot as a version-5 ONEX base stream.
func EncodeSnapshot(w io.Writer, snap *Snapshot) error {
	if snap == nil || snap.Dataset == nil || snap.Grouped == nil {
		return errors.New("core: incomplete snapshot")
	}
	shards := snap.Shards
	if shards < 1 {
		shards = 1
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := io.WriteString(cw, persistMagic); err != nil {
		return err
	}
	le := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }
	if err := le(uint32(persistVersion)); err != nil {
		return err
	}
	// Header: build parameters needed to reconstruct behaviour.
	if err := errJoin(
		le(snap.Cfg.ST),
		le(int64(snap.Cfg.Seed)),
		le(uint8(snap.Cfg.Normalize)),
		le(snap.NormMin), le(snap.NormMax),
		le(uint8(boolByte(snap.Cfg.Query.DisableEarlyStop))),
		le(uint8(boolByte(snap.Cfg.Query.DisableLowerBounds))),
		le(int64(snap.Cfg.Query.CandidateLimit)),
		le(int64(snap.Cfg.Query.Patience)),
		le(snap.Cfg.RebuildDrift),
		le(uint32(shards)),
		le(int64(snap.Cfg.DcTopK)), // version ≥ 5
	); err != nil {
		return err
	}
	// Metadata: save timestamp, original build cost, and the configured
	// length restriction.
	if err := errJoin(
		le(time.Now().Unix()),
		le(int64(snap.BuildTime)),
		le(uint32(len(snap.Cfg.Lengths))),
	); err != nil {
		return err
	}
	for _, l := range snap.Cfg.Lengths {
		if err := le(uint32(l)); err != nil {
			return err
		}
	}
	// Dataset.
	d := snap.Dataset
	if err := writeString(cw, d.Name); err != nil {
		return err
	}
	if err := le(uint32(d.N())); err != nil {
		return err
	}
	for _, s := range d.Series {
		if err := writeString(cw, s.Label); err != nil {
			return err
		}
		if err := le(uint32(s.Len())); err != nil {
			return err
		}
		if err := le(s.Values); err != nil {
			return err
		}
	}
	// Groups.
	gr := snap.Grouped
	if err := errJoin(le(gr.TotalSubseq), le(gr.IncrementalMembers)); err != nil {
		return err
	}
	if err := le(uint32(len(gr.Lengths))); err != nil {
		return err
	}
	for _, l := range gr.Lengths {
		lg := gr.ByLength[l]
		if err := errJoin(le(uint32(l)), le(uint32(len(lg.Groups)))); err != nil {
			return err
		}
		for _, g := range lg.Groups {
			if err := le(g.Rep); err != nil {
				return err
			}
			if err := le(uint32(g.Count())); err != nil {
				return err
			}
			for _, m := range g.Members {
				if err := errJoin(le(uint32(m.SeriesIdx)), le(uint32(m.Start)), le(m.EDToRep)); err != nil {
					return err
				}
			}
		}
	}
	// Trailing checksum (of everything before it).
	sum := cw.crc
	if err := binary.Write(bw, binary.LittleEndian, sum); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeSnapshot reads and checksums one ONEX base stream without building
// any index state on top.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != persistMagic {
		return nil, ErrBadFormat
	}
	le := func(v any) error { return binary.Read(cr, binary.LittleEndian, v) }
	var version uint32
	if err := le(&version); err != nil {
		return nil, err
	}
	if version < persistMinVersion || version > persistVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}

	var cfg BuildConfig
	var normMode, earlyStop, noLB uint8
	var seed, candLimit, patience int64
	var normMin, normMax float64
	if err := errJoin(
		le(&cfg.ST), le(&seed), le(&normMode), le(&normMin), le(&normMax),
		le(&earlyStop), le(&noLB), le(&candLimit), le(&patience),
		le(&cfg.RebuildDrift),
	); err != nil {
		return nil, err
	}
	var shards uint32
	if err := le(&shards); err != nil {
		return nil, err
	}
	if shards < 1 || shards > 1<<20 {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrBadFormat, shards)
	}
	if version >= 5 {
		var dcTopK int64
		if err := le(&dcTopK); err != nil {
			return nil, err
		}
		cfg.DcTopK = int(dcTopK)
	}
	var savedAt time.Time
	var origBuild time.Duration
	var savedUnix, buildNanos int64
	var nCfgLengths uint32
	if err := errJoin(le(&savedUnix), le(&buildNanos), le(&nCfgLengths)); err != nil {
		return nil, err
	}
	if nCfgLengths > 1<<20 {
		return nil, fmt.Errorf("%w: implausible length-config count %d", ErrBadFormat, nCfgLengths)
	}
	for i := uint32(0); i < nCfgLengths; i++ {
		var l uint32
		if err := le(&l); err != nil {
			return nil, err
		}
		cfg.Lengths = append(cfg.Lengths, int(l))
	}
	if savedUnix > 0 {
		savedAt = time.Unix(savedUnix, 0)
	}
	if buildNanos > 0 {
		origBuild = time.Duration(buildNanos)
	}
	if cfg.ST <= 0 || math.IsNaN(cfg.ST) {
		return nil, fmt.Errorf("%w: invalid ST %v", ErrBadFormat, cfg.ST)
	}
	cfg.Seed = seed
	cfg.Normalize = NormalizeMode(normMode)
	cfg.Query = query.Options{
		DisableEarlyStop:   earlyStop != 0,
		DisableLowerBounds: noLB != 0,
		CandidateLimit:     int(candLimit),
		Patience:           int(patience),
	}

	// Dataset.
	name, err := readString(cr)
	if err != nil {
		return nil, err
	}
	var n uint32
	if err := le(&n); err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<28 {
		return nil, fmt.Errorf("%w: implausible series count %d", ErrBadFormat, n)
	}
	d := &ts.Dataset{Name: name}
	for i := uint32(0); i < n; i++ {
		label, err := readString(cr)
		if err != nil {
			return nil, err
		}
		var sl uint32
		if err := le(&sl); err != nil {
			return nil, err
		}
		if sl == 0 || sl > 1<<28 {
			return nil, fmt.Errorf("%w: implausible series length %d", ErrBadFormat, sl)
		}
		values := make([]float64, sl)
		if err := le(values); err != nil {
			return nil, err
		}
		d.Append(label, values)
	}

	// Groups.
	gr := &grouping.Result{ST: cfg.ST, ByLength: map[int]*grouping.LengthGroups{}}
	if err := errJoin(le(&gr.TotalSubseq), le(&gr.IncrementalMembers)); err != nil {
		return nil, err
	}
	var nLengths uint32
	if err := le(&nLengths); err != nil {
		return nil, err
	}
	maxLen := d.MaxLen()
	for li := uint32(0); li < nLengths; li++ {
		var l, nGroups uint32
		if err := errJoin(le(&l), le(&nGroups)); err != nil {
			return nil, err
		}
		if l < 1 || int(l) > maxLen {
			return nil, fmt.Errorf("%w: group length %d outside dataset", ErrBadFormat, l)
		}
		lg := &grouping.LengthGroups{Length: int(l)}
		for gi := uint32(0); gi < nGroups; gi++ {
			rep := make([]float64, l)
			if err := le(rep); err != nil {
				return nil, err
			}
			var nMembers uint32
			if err := le(&nMembers); err != nil {
				return nil, err
			}
			if nMembers == 0 {
				return nil, fmt.Errorf("%w: empty group", ErrBadFormat)
			}
			g := &grouping.Group{Length: int(l), ID: int(gi), Rep: rep,
				Members: make([]grouping.Member, nMembers)}
			for mi := range g.Members {
				var sIdx, start uint32
				var ed float64
				if err := errJoin(le(&sIdx), le(&start), le(&ed)); err != nil {
					return nil, err
				}
				if int(sIdx) >= d.N() || !d.Series[sIdx].CheckRange(int(start), int(l)) {
					return nil, fmt.Errorf("%w: member (%d,%d) out of range", ErrBadFormat, sIdx, start)
				}
				g.Members[mi] = grouping.Member{SeriesIdx: int(sIdx), Start: int(start), EDToRep: ed}
			}
			lg.Groups = append(lg.Groups, g)
		}
		gr.Lengths = append(gr.Lengths, int(l))
		gr.ByLength[int(l)] = lg
	}

	// Verify the checksum before building anything on top.
	want := cr.crc
	var got uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadFormat, err)
	}
	if got != want {
		return nil, ErrCorrupt
	}

	return &Snapshot{
		Shards:    int(shards),
		Cfg:       cfg,
		NormMin:   normMin,
		NormMax:   normMax,
		SavedAt:   savedAt,
		BuildTime: origBuild,
		Dataset:   d,
		Grouped:   gr,
	}, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: implausible string length %d", ErrBadFormat, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func errJoin(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
