package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"time"

	"onex/internal/grouping"
	"onex/internal/ts"
)

// The on-disk format is a little-endian stream:
//
//	magic "ONEXBASE" | version u32 | header | metadata | dataset | groups | crc32
//
// The header carries the build parameters (ST, seed, normalization and its
// min/max, the rebuild-drift threshold and the shard count);
// the metadata carries the Save
// wall-clock timestamp, the original offline build time and the configured
// length restriction, so catalogs (internal/hub) can report a reloaded base
// exactly as the built one. Groups store representatives and member lists
// verbatim (preserving the exact drift state of Algorithm 1's running
// averages) after the subsequence and incremental-member counters, so the
// streaming-append drift and its amortized-rebuild policy survive a round
// trip. Everything else is derived state, pure functions of the groups and
// the shard count: the per-shard restrictions and the index layers are
// recomputed on load, the SP-Space thresholds when first asked for.
//
// Versions 6 and 7 load. Version 6 is this layout with four more header
// fields after the normalization min/max — the retired query knobs
// earlyStop u8, noLB u8, candLimit i64 and patience i64. A version-6 stream
// loads only when all four hold their defaults (0, 0, 0, 0), the one
// configuration the engine runs; any other value would silently answer with
// a different walk, so it is refused with ErrBadVersion naming the field.
// Older versions answer ErrBadVersion.
//
// Nothing read before the trailing checksum is trusted: every count is
// bounded by what the stream or the dataset decoded so far can hold, series
// values are read in chunks, and non-finite values or a repeated length are
// ErrBadFormat.
const (
	persistMagic      = "ONEXBASE"
	persistVersion    = 7
	persistMinVersion = 6
)

var (
	// ErrBadFormat reports a stream that is not an ONEX base.
	ErrBadFormat = errors.New("core: not an ONEX base stream")
	// ErrBadVersion reports an unsupported format version.
	ErrBadVersion = errors.New("core: unsupported ONEX base version")
	// ErrCorrupt reports a checksum mismatch.
	ErrCorrupt = errors.New("core: ONEX base stream corrupted (checksum mismatch)")
)

// Snapshot is the decoded persistent state of an engine: everything a
// Save stream carries.
type Snapshot struct {
	// Shards is the serving layout's shard count (≥ 1).
	Shards int
	// Cfg is the build configuration (ST, seed, lengths, normalization…);
	// Parallelism, Progress and Cancel are never persisted.
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

// blockSize is the encoder's block and the decoder's largest chunk: each is
// checksummed once and moved with one Write or Read.
const blockSize = 1 << 16

// encoder appends fields to one reusable block and hands each full block,
// checksummed once, to w. The first write error sticks: nothing more is
// written and EncodeSnapshot returns it.
type encoder struct {
	w   io.Writer
	buf []byte // under blockSize bytes between fields; cap has room for one more record
	crc uint32
	err error
}

func (e *encoder) emit(p []byte) {
	if e.err == nil {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, p)
		_, e.err = e.w.Write(p)
	}
}

// spill hands a full block to w and keeps what overflowed it, so every
// block is exactly blockSize bytes.
func (e *encoder) spill() {
	if len(e.buf) >= blockSize {
		e.block()
	}
}

// block is kept out of line so that spill, and with it every field writer,
// inlines.
//
//go:noinline
func (e *encoder) block() {
	e.emit(e.buf[:blockSize])
	e.buf = e.buf[:copy(e.buf, e.buf[blockSize:])]
}

func (e *encoder) u8(v uint8) {
	e.buf = append(e.buf, v)
	e.spill()
}

func (e *encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	e.spill()
}

func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	e.spill()
}

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// member writes one 16-byte member record: series u32, start u32, ED f64.
func (e *encoder) member(m grouping.Member) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(m.SeriesIdx))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(m.Start))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(m.EDToRep))
	e.spill()
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	for len(s) > 0 {
		n := min(len(s), blockSize-len(e.buf))
		e.buf = append(e.buf, s[:n]...)
		s = s[n:]
		e.spill()
	}
}

// EncodeSnapshot writes one snapshot as a version-7 ONEX base stream.
func EncodeSnapshot(w io.Writer, snap *Snapshot) error {
	if snap == nil || snap.Dataset == nil || snap.Grouped == nil {
		return errors.New("core: incomplete snapshot")
	}
	enc := &encoder{w: w, buf: make([]byte, 0, blockSize+16)}
	enc.buf = append(enc.buf, persistMagic...)
	enc.u32(persistVersion)
	// Header: build parameters needed to reconstruct behaviour.
	enc.f64(snap.Cfg.ST)
	enc.u64(uint64(snap.Cfg.Seed))
	enc.u8(uint8(snap.Cfg.Normalize))
	enc.f64(snap.NormMin)
	enc.f64(snap.NormMax)
	enc.f64(snap.Cfg.RebuildDrift)
	enc.u32(uint32(max(snap.Shards, 1)))
	// Metadata: save timestamp, original build cost, and the configured
	// length restriction.
	enc.u64(uint64(time.Now().Unix()))
	enc.u64(uint64(snap.BuildTime))
	enc.u32(uint32(len(snap.Cfg.Lengths)))
	for _, l := range snap.Cfg.Lengths {
		enc.u32(uint32(l))
	}
	// Dataset.
	d := snap.Dataset
	enc.str(d.Name)
	enc.u32(uint32(d.N()))
	for _, s := range d.Series {
		enc.str(s.Label)
		enc.u32(uint32(s.Len()))
		for _, v := range s.Values {
			enc.f64(v)
		}
	}
	// Groups.
	gr := snap.Grouped
	enc.u64(uint64(gr.TotalSubseq))
	enc.u64(uint64(gr.IncrementalMembers))
	enc.u32(uint32(len(gr.Lengths)))
	for _, l := range gr.Lengths {
		lg := gr.ByLength[l]
		enc.u32(uint32(l))
		enc.u32(uint32(len(lg.Groups)))
		for _, g := range lg.Groups {
			for _, v := range g.Rep {
				enc.f64(v)
			}
			enc.u32(uint32(g.Count()))
			for _, m := range g.Members {
				enc.member(m)
			}
		}
	}
	// Trailing checksum (of everything before it).
	enc.buf = binary.LittleEndian.AppendUint32(enc.buf, crc32.Update(enc.crc, crc32.IEEETable, enc.buf))
	enc.emit(enc.buf)
	return enc.err
}

// decoder reads the stream through one reusable chunk buffer and checksums
// each chunk once, as it is taken. The first error sticks: every later take
// returns nil and the fields read as zero.
type decoder struct {
	r   io.Reader
	buf []byte // buf[off:] is read ahead and not yet taken; cap blockSize
	off int
	crc uint32
	err error
}

// take returns the next n ≤ blockSize bytes of the stream, valid until the
// next take, or nil once the stream has failed.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		rest := copy(d.buf[:cap(d.buf)], d.buf[d.off:])
		m, err := io.ReadAtLeast(d.r, d.buf[rest:cap(d.buf)], n-rest)
		d.buf, d.off = d.buf[:rest+m], 0
		if err != nil {
			d.err = err
			return nil
		}
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	d.crc = crc32.Update(d.crc, crc32.IEEETable, b)
	return b
}

func (d *decoder) u8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// str reads a length-prefixed string chunk by chunk, so it costs what the
// stream holds, not what its length claims.
func (d *decoder) str() string {
	n := int(d.u32())
	if n > 1<<20 {
		d.err = fmt.Errorf("%w: implausible string length %d", ErrBadFormat, n)
	}
	var sb strings.Builder
	for ; n > 0 && d.err == nil; n -= blockSize {
		sb.Write(d.take(min(n, blockSize)))
	}
	return sb.String()
}

// floats appends n values to dst chunk by chunk, growing dst only as the
// stream delivers them, and refuses non-finite ones as ErrBadFormat naming
// what they are.
func (d *decoder) floats(dst []float64, n int, what string) []float64 {
	for ; n > 0 && d.err == nil; n -= blockSize / 8 {
		b := d.take(8 * min(n, blockSize/8))
		for i := 0; i < len(b); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				d.err = fmt.Errorf("%w: non-finite %s", ErrBadFormat, what)
				return nil
			}
			dst = append(dst, v)
		}
	}
	return dst
}

// DecodeSnapshot reads and checksums one ONEX base stream without building
// any index state on top.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	dec := &decoder{r: r, buf: make([]byte, 0, blockSize)}
	if string(dec.take(len(persistMagic))) != persistMagic {
		if dec.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, dec.err)
		}
		return nil, ErrBadFormat
	}
	version := dec.u32()
	if dec.err != nil {
		return nil, dec.err
	}
	if version < persistMinVersion || version > persistVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}

	var cfg BuildConfig
	cfg.ST = dec.f64()
	cfg.Seed = int64(dec.u64())
	cfg.Normalize = NormalizeMode(dec.u8())
	normMin, normMax := dec.f64(), dec.f64()
	if version == 6 {
		if err := readRetiredKnobs(dec); err != nil {
			return nil, err
		}
	}
	cfg.RebuildDrift = dec.f64()
	shards := dec.u32()
	if dec.err != nil {
		return nil, dec.err
	}
	if shards < 1 || shards > 1<<20 {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrBadFormat, shards)
	}
	var savedAt time.Time
	var origBuild time.Duration
	savedUnix, buildNanos := int64(dec.u64()), int64(dec.u64())
	nCfgLengths := dec.u32()
	if dec.err != nil {
		return nil, dec.err
	}
	if nCfgLengths > 1<<20 {
		return nil, fmt.Errorf("%w: implausible length-config count %d", ErrBadFormat, nCfgLengths)
	}
	for i := uint32(0); i < nCfgLengths && dec.err == nil; i++ {
		cfg.Lengths = append(cfg.Lengths, int(dec.u32()))
	}
	if dec.err != nil {
		return nil, dec.err
	}
	if savedUnix > 0 {
		savedAt = time.Unix(savedUnix, 0)
	}
	if buildNanos > 0 {
		origBuild = time.Duration(buildNanos)
	}
	if !(cfg.ST > 0) || math.IsInf(cfg.ST, 0) {
		return nil, fmt.Errorf("%w: invalid ST %v", ErrBadFormat, cfg.ST)
	}
	if ts.CheckFinite([]float64{normMin, normMax}) >= 0 {
		return nil, fmt.Errorf("%w: non-finite normalization bounds", ErrBadFormat)
	}

	// Dataset.
	name := dec.str()
	n := dec.u32()
	if dec.err != nil {
		return nil, dec.err
	}
	if n == 0 || n > 1<<28 {
		return nil, fmt.Errorf("%w: implausible series count %d", ErrBadFormat, n)
	}
	d := &ts.Dataset{Name: name}
	for i := uint32(0); i < n; i++ {
		label := dec.str()
		sl := dec.u32()
		if dec.err != nil {
			return nil, dec.err
		}
		if sl == 0 || sl > 1<<28 {
			return nil, fmt.Errorf("%w: implausible series length %d", ErrBadFormat, sl)
		}
		values := dec.floats(make([]float64, 0, min(sl, blockSize/8)), int(sl), "series value")
		if dec.err != nil {
			return nil, dec.err
		}
		d.Append(label, values)
	}

	// Groups.
	gr := &grouping.Result{ST: cfg.ST, ByLength: map[int]*grouping.LengthGroups{}}
	gr.TotalSubseq, gr.IncrementalMembers = int64(dec.u64()), int64(dec.u64())
	nLengths := dec.u32()
	if dec.err != nil {
		return nil, dec.err
	}
	maxLen := d.MaxLen()
	for li := uint32(0); li < nLengths; li++ {
		l, nGroups := dec.u32(), dec.u32()
		if dec.err != nil {
			return nil, dec.err
		}
		if l < 1 || int(l) > maxLen {
			return nil, fmt.Errorf("%w: group length %d outside dataset", ErrBadFormat, l)
		}
		if _, dup := gr.ByLength[int(l)]; dup {
			return nil, fmt.Errorf("%w: length %d repeated", ErrBadFormat, l)
		}
		// Every window of the dataset is a member of at most one group, and
		// every group has a member: the window count bounds both counts.
		windows := d.SubseqCount([]int{int(l)})
		if int64(nGroups) > windows {
			return nil, fmt.Errorf("%w: %d groups of length %d exceed its %d windows", ErrBadFormat, nGroups, l, windows)
		}
		lg := &grouping.LengthGroups{Length: int(l)}
		for gi := uint32(0); gi < nGroups; gi++ {
			rep := dec.floats(make([]float64, 0, l), int(l), "representative")
			nMembers := dec.u32()
			if dec.err != nil {
				return nil, dec.err
			}
			if nMembers == 0 {
				return nil, fmt.Errorf("%w: empty group", ErrBadFormat)
			}
			if int64(nMembers) > windows {
				return nil, fmt.Errorf("%w: members of length %d exceed its windows", ErrBadFormat, l)
			}
			windows -= int64(nMembers)
			g := &grouping.Group{Length: int(l), ID: int(gi), Rep: rep,
				Members: make([]grouping.Member, nMembers)}
			// Member records are 16 bytes (series u32, start u32, ED f64),
			// taken a chunk at a time.
			for mi := 0; mi < len(g.Members); {
				b := dec.take(16 * min(len(g.Members)-mi, blockSize/16))
				if b == nil {
					return nil, dec.err
				}
				for ; len(b) > 0; b, mi = b[16:], mi+1 {
					sIdx, start := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
					ed := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
					if int(sIdx) >= d.N() || !d.Series[sIdx].CheckRange(int(start), int(l)) {
						return nil, fmt.Errorf("%w: member (%d,%d) out of range", ErrBadFormat, sIdx, start)
					}
					g.Members[mi] = grouping.Member{SeriesIdx: int(sIdx), Start: int(start), EDToRep: ed}
				}
			}
			if mi := grouping.LSIOrderBreak(g.Members); mi >= 0 {
				return nil, fmt.Errorf("%w: member distance %v out of LSI order", ErrBadFormat, g.Members[mi].EDToRep)
			}
			lg.Groups = append(lg.Groups, g)
		}
		gr.Lengths = append(gr.Lengths, int(l))
		gr.ByLength[int(l)] = lg
	}

	// Verify the checksum before building anything on top.
	want := dec.crc
	got := dec.u32()
	if dec.err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadFormat, dec.err)
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

// readRetiredKnobs reads the four query knobs of a version-6 header and
// refuses any that is not its default, the one configuration the engine
// runs.
func readRetiredKnobs(dec *decoder) error {
	earlyStop, noLB := dec.u8(), dec.u8()
	candLimit, patience := int64(dec.u64()), int64(dec.u64())
	if dec.err != nil {
		return dec.err
	}
	for _, f := range []struct {
		name  string
		value int64
	}{{"earlyStop", int64(earlyStop)}, {"noLB", int64(noLB)}, {"candLimit", candLimit}, {"patience", patience}} {
		if f.value != 0 {
			return fmt.Errorf("%w: version-6 stream sets the retired %s field to %d; only its default, 0, still loads",
				ErrBadVersion, f.name, f.value)
		}
	}
	return nil
}
