package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"onex/internal/grouping"
	"onex/internal/query"
)

// A shard spec travels from a coordinator to a shard worker as a
// little-endian stream on the snapshot's block codec (the same encoder and
// decoder: 64 KiB blocks, one running CRC32, chunked reads):
//
//	magic "ONEXSPEC" | version u32 | key | series | lengths | crc32
//
//	key     dataset str | generation str | shard u32 | shards u32 | ST f64
//	series  count u32, then per series: id u32 | label str | count u32 | values f64…
//	lengths count u32, then per length: length u32 | groups u32, then per group:
//	        global id u32 | owned u8 | rep count u32 | rep f64… |
//	        members u32 | member records (series u32, start u32, EDToRep f64)…
//
// A string is its byte count u32 and its bytes. The key comes first so that
// a worker can answer a resident key before it reads the rest.
//
// The stream carries a spec's bits as they are: the decoder refuses only
// what is not a spec stream (a wrong magic or version, a truncated stream, a
// count the stream cannot hold, trailing bytes, a checksum mismatch), and
// query.BuildLocalShard, which every shard of a partitioned layout is built
// by, refuses a spec no query could run against. Every count is bounded by
// what the stream has delivered: slices grow as their elements arrive.
const (
	specMagic   = "ONEXSPEC"
	specVersion = 1
	// maxSpecString bounds a string of the stream, as the snapshot bounds
	// its own.
	maxSpecString = 1 << 20
)

// ErrBadSpecStream reports a stream that is not a decodable shard spec.
var ErrBadSpecStream = errors.New("core: bad shard spec stream")

// EncodeShardSpec writes spec as one shard spec stream. It refuses a spec
// with a value the stream's fixed-width fields cannot carry (a negative or
// over-wide shard, id, length or start) instead of truncating it.
func EncodeShardSpec(w io.Writer, spec query.ShardSpec) error {
	if err := checkSpecWidths(spec); err != nil {
		return err
	}
	enc := &encoder{w: w, buf: make([]byte, 0, blockSize+16)}
	enc.buf = append(enc.buf, specMagic...)
	enc.u32(specVersion)
	enc.str(spec.Dataset)
	enc.str(spec.Generation)
	enc.u32(uint32(spec.Shard))
	enc.u32(uint32(spec.Shards))
	enc.f64(spec.ST)
	enc.u32(uint32(len(spec.Series)))
	for _, s := range spec.Series {
		enc.u32(uint32(s.ID))
		enc.str(s.Label)
		enc.u32(uint32(len(s.Values)))
		for _, v := range s.Values {
			enc.f64(v)
		}
	}
	enc.u32(uint32(len(spec.Lengths)))
	for _, sl := range spec.Lengths {
		enc.u32(uint32(sl.Length))
		enc.u32(uint32(len(sl.Groups)))
		for _, g := range sl.Groups {
			enc.u32(uint32(g.GlobalID))
			owned := uint8(0)
			if g.Owned {
				owned = 1
			}
			enc.u8(owned)
			enc.u32(uint32(len(g.Rep)))
			for _, v := range g.Rep {
				enc.f64(v)
			}
			enc.u32(uint32(len(g.Members)))
			for _, m := range g.Members {
				enc.member(grouping.Member{SeriesIdx: m.Series, Start: m.Start, EDToRep: m.EDToRep})
			}
		}
	}
	enc.buf = binary.LittleEndian.AppendUint32(enc.buf, crc32.Update(enc.crc, crc32.IEEETable, enc.buf))
	enc.emit(enc.buf)
	return enc.err
}

// checkSpecWidths reports the first integer of spec that does not fit its
// u32 field.
func checkSpecWidths(spec query.ShardSpec) error {
	bad := func(what string, v int) error {
		return fmt.Errorf("core: shard spec %s %d does not fit the stream's u32 field", what, v)
	}
	fits := func(v int) bool { return v >= 0 && uint64(v) <= math.MaxUint32 }
	if !fits(spec.Shard) {
		return bad("shard", spec.Shard)
	}
	if !fits(spec.Shards) {
		return bad("shard count", spec.Shards)
	}
	for _, s := range spec.Series {
		if !fits(s.ID) {
			return bad("series id", s.ID)
		}
	}
	for _, sl := range spec.Lengths {
		if !fits(sl.Length) {
			return bad("length", sl.Length)
		}
		for _, g := range sl.Groups {
			if !fits(g.GlobalID) {
				return bad("group id", g.GlobalID)
			}
			for _, m := range g.Members {
				if !fits(m.Series) {
					return bad("member series", m.Series)
				}
				if !fits(m.Start) {
					return bad("member start", m.Start)
				}
			}
		}
	}
	return nil
}

// SpecReader decodes one shard spec stream in two steps: the key, read by
// NewSpecReader, then the rest, by Decode. A worker reads the key first so
// that it can answer a resident key without reading the body.
type SpecReader struct {
	dec *decoder
	key query.ShardSpec
}

// NewSpecReader reads the stream's magic, version and key.
func NewSpecReader(r io.Reader) (*SpecReader, error) {
	dec := &decoder{r: r, buf: make([]byte, 0, blockSize)}
	sr := &SpecReader{dec: dec}
	if string(dec.take(len(specMagic))) != specMagic {
		return nil, sr.fail("wrong magic")
	}
	if v := dec.u32(); dec.err == nil && v != specVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadSpecStream, v, specVersion)
	}
	sr.key.Dataset = sr.str()
	sr.key.Generation = sr.str()
	sr.key.Shard = int(dec.u32())
	sr.key.Shards = int(dec.u32())
	sr.key.ST = dec.f64()
	if dec.err != nil {
		return nil, sr.fail("reading the key")
	}
	return sr, nil
}

// Key returns the spec's key fields (Dataset, Generation, Shard, Shards,
// ST), read before the checksum that covers them is.
func (sr *SpecReader) Key() query.ShardSpec { return sr.key }

// Decode reads the rest of the stream and verifies its checksum. The
// stream must end there: trailing bytes are refused.
func (sr *SpecReader) Decode() (query.ShardSpec, error) {
	dec, spec := sr.dec, sr.key
	nSeries := dec.u32()
	for i := uint32(0); i < nSeries && dec.err == nil; i++ {
		id, label := int(dec.u32()), sr.str()
		values := sr.floats(dec.u32())
		spec.Series = append(spec.Series, query.SpecSeries{ID: id, Label: label, Values: values})
	}
	nLengths := dec.u32()
	for i := uint32(0); i < nLengths && dec.err == nil; i++ {
		sl := query.SpecLength{Length: int(dec.u32())}
		nGroups := dec.u32()
		for j := uint32(0); j < nGroups && dec.err == nil; j++ {
			g := query.SpecGroup{GlobalID: int(dec.u32())}
			switch owned := dec.u8(); owned {
			case 0:
			case 1:
				g.Owned = true
			default:
				return query.ShardSpec{}, fmt.Errorf("%w: owned flag %d", ErrBadSpecStream, owned)
			}
			g.Rep = sr.floats(dec.u32())
			g.Members = sr.members(dec.u32())
			sl.Groups = append(sl.Groups, g)
		}
		spec.Lengths = append(spec.Lengths, sl)
	}
	if dec.err != nil {
		return query.ShardSpec{}, sr.fail("reading the body")
	}
	want := dec.crc
	if got := dec.u32(); dec.err != nil {
		return query.ShardSpec{}, sr.fail("reading the checksum")
	} else if got != want {
		return query.ShardSpec{}, fmt.Errorf("%w: checksum mismatch", ErrBadSpecStream)
	}
	if dec.off < len(dec.buf) {
		return query.ShardSpec{}, fmt.Errorf("%w: trailing bytes", ErrBadSpecStream)
	}
	var one [1]byte
	if n, _ := io.ReadFull(dec.r, one[:]); n > 0 {
		return query.ShardSpec{}, fmt.Errorf("%w: trailing bytes", ErrBadSpecStream)
	}
	return spec, nil
}

// DecodeShardSpec reads one whole shard spec stream.
func DecodeShardSpec(r io.Reader) (query.ShardSpec, error) {
	sr, err := NewSpecReader(r)
	if err != nil {
		return query.ShardSpec{}, err
	}
	return sr.Decode()
}

// fail wraps the decoder's sticky error, or names what was read when there
// is none.
func (sr *SpecReader) fail(what string) error {
	if err := sr.dec.err; err != nil {
		if errors.Is(err, ErrBadSpecStream) {
			return err
		}
		return fmt.Errorf("%w: %s: %v", ErrBadSpecStream, what, err)
	}
	return fmt.Errorf("%w: %s", ErrBadSpecStream, what)
}

// str reads a length-prefixed string chunk by chunk.
func (sr *SpecReader) str() string {
	dec := sr.dec
	n := int(dec.u32())
	if n > maxSpecString {
		if dec.err == nil {
			dec.err = fmt.Errorf("%w: implausible string length %d", ErrBadSpecStream, n)
		}
		return ""
	}
	var b []byte
	for ; n > 0 && dec.err == nil; n -= blockSize {
		b = append(b, dec.take(min(n, blockSize))...)
	}
	return string(b)
}

// floats reads n values as their bits, a chunk at a time, so the slice
// grows only as the stream delivers them. Zero values read as nil, which
// is how a spec holds none.
func (sr *SpecReader) floats(n uint32) []float64 {
	var out []float64
	for left := int(n); left > 0 && sr.dec.err == nil; {
		b := sr.dec.take(8 * min(left, blockSize/8))
		if out == nil && b != nil {
			out = make([]float64, 0, min(int(n), blockSize/8))
		}
		for ; len(b) > 0; b = b[8:] {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		left -= blockSize / 8
	}
	return out
}

// members reads n 16-byte member records a chunk at a time.
func (sr *SpecReader) members(n uint32) []query.SpecMember {
	var out []query.SpecMember
	for left := int(n); left > 0 && sr.dec.err == nil; {
		b := sr.dec.take(16 * min(left, blockSize/16))
		if out == nil && b != nil {
			out = make([]query.SpecMember, 0, min(int(n), blockSize/16))
		}
		for ; len(b) > 0; b = b[16:] {
			out = append(out, query.SpecMember{
				Series:  int(binary.LittleEndian.Uint32(b)),
				Start:   int(binary.LittleEndian.Uint32(b[4:])),
				EDToRep: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			})
		}
		left -= blockSize / 16
	}
	return out
}
