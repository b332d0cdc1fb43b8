package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/iotest"

	"onex/internal/query"
)

// tinySpec is a one-series, one-group spec, the shape of a test shard.
func tinySpec() query.ShardSpec {
	return query.ShardSpec{
		Dataset: "d", Generation: "g", Shard: 0, Shards: 1, ST: 0.3,
		Series: []query.SpecSeries{{ID: 0, Label: "a", Values: []float64{0.1, 0.3, 0.2, 0.5, 0.4}}},
		Lengths: []query.SpecLength{{Length: 2, Groups: []query.SpecGroup{{
			GlobalID: 0, Owned: true, Rep: []float64{0.1, 0.3},
			Members: []query.SpecMember{{Start: 0}, {Start: 2, EDToRep: 0.05}, {Start: 1, EDToRep: 0.1}},
		}}}},
	}
}

// Stream offsets of tinySpec's count fields: after the magic and version
// come the key (dataset "d", generation "g", shard, shards, ST), the series
// count, the id, the label "a" and the value count; after the values, the
// length count, the length, its group count, the global id, the owned flag,
// the representative count, the representative and the member count.
const (
	tinySpecSeries  = 8 + 4 + (4 + 1) + (4 + 1) + 4 + 4 + 8
	tinySpecValues  = tinySpecSeries + 4 + 4 + (4 + 1)
	tinySpecGroups  = tinySpecValues + 4 + 5*8 + 4 + 4
	tinySpecMembers = tinySpecGroups + 4 + 4 + 1 + 4 + 2*8
)

// edgeSpec carries every float class a spec can hold bit for bit: -0.0,
// subnormals, the extremes and a NaN payload, which only BuildLocalShard
// refuses; plus an unowned group, an empty label, a multi-byte one and a
// length with no groups.
func edgeSpec() query.ShardSpec {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	return query.ShardSpec{
		Dataset: "edge/ÿ", Generation: "gen-42", Shard: 3, Shards: 7, ST: math.SmallestNonzeroFloat64,
		Series: []query.SpecSeries{
			{ID: 5, Values: []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, 0x1p-1040}},
			{ID: 1<<32 - 1, Label: "σειρά", Values: []float64{nan, math.Inf(-1), math.Inf(1), 1}},
		},
		Lengths: []query.SpecLength{
			{Length: 3},
			{Length: 2, Groups: []query.SpecGroup{
				{GlobalID: 9, Rep: []float64{math.Copysign(0, -1), 0x1p-1074}, Members: []query.SpecMember{
					{Series: 5, Start: 2, EDToRep: math.Copysign(0, -1)}, {Series: 1<<32 - 1, Start: 1, EDToRep: 0x1p-1060},
				}},
				{GlobalID: 1<<32 - 1, Owned: true, Rep: []float64{nan, 2}, Members: []query.SpecMember{{Series: 5, EDToRep: nan}}},
			}},
		},
	}
}

// chunkSpec spans several encoder blocks: a series of three chunks of
// values and a group with more members than one chunk of records.
func chunkSpec() query.ShardSpec {
	values := make([]float64, 3*blockSize/8)
	for i := range values {
		values[i] = math.Sin(float64(i) / 7)
	}
	members := make([]query.SpecMember, blockSize/16+100)
	for i := range members {
		members[i] = query.SpecMember{Start: i, EDToRep: float64(i) / float64(len(members))}
	}
	return query.ShardSpec{
		Dataset: "chunks", Generation: "g", Shards: 1, ST: 0.2,
		Series: []query.SpecSeries{{ID: 0, Label: "long", Values: values}},
		Lengths: []query.SpecLength{{Length: 4, Groups: []query.SpecGroup{{
			GlobalID: 0, Owned: true, Rep: []float64{0.1, 0.2, 0.3, 0.4}, Members: members,
		}}}},
	}
}

func encodeSpec(t testing.TB, spec query.ShardSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeShardSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardSpecRoundTrip: every spec decodes to itself, every float's bits
// included, also from a reader that returns one byte at a time, and
// re-encodes to the same bytes. The specs an engine derives from a real
// grouping round-trip in internal/shard (TestRestrictionIntegrity).
func TestShardSpecRoundTrip(t *testing.T) {
	for name, want := range map[string]query.ShardSpec{"tiny": tinySpec(), "edge": edgeSpec(), "chunks": chunkSpec()} {
		t.Run(name, func(t *testing.T) {
			data := encodeSpec(t, want)
			got, err := DecodeShardSpec(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			checkSpecBits(t, got, want)
			if again := encodeSpec(t, got); !bytes.Equal(again, data) {
				t.Fatal("re-encoding the decoded spec moved a byte")
			}
			got, err = DecodeShardSpec(iotest.OneByteReader(bytes.NewReader(data)))
			if err != nil {
				t.Fatalf("one byte at a time: %v", err)
			}
			checkSpecBits(t, got, want)
		})
	}
}

// checkSpecBits fails unless got and want hold the same fields and the same
// bits in every float (reflect.DeepEqual equates -0.0 with 0.0 and tells no
// NaN from another).
func checkSpecBits(t *testing.T, got, want query.ShardSpec) {
	t.Helper()
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if got.Dataset != want.Dataset || got.Generation != want.Generation || got.Shard != want.Shard ||
		got.Shards != want.Shards || math.Float64bits(got.ST) != math.Float64bits(want.ST) ||
		len(got.Series) != len(want.Series) || len(got.Lengths) != len(want.Lengths) {
		t.Fatal("key or counts diverged")
	}
	for i, s := range want.Series {
		g := got.Series[i]
		if g.ID != s.ID || g.Label != s.Label || !same(g.Values, s.Values) {
			t.Fatalf("series %d diverged", i)
		}
	}
	for i, sl := range want.Lengths {
		gl := got.Lengths[i]
		if gl.Length != sl.Length || len(gl.Groups) != len(sl.Groups) {
			t.Fatalf("length %d diverged", sl.Length)
		}
		for j, g := range sl.Groups {
			h := gl.Groups[j]
			if h.GlobalID != g.GlobalID || h.Owned != g.Owned || !same(h.Rep, g.Rep) || len(h.Members) != len(g.Members) {
				t.Fatalf("group %d of length %d diverged", g.GlobalID, sl.Length)
			}
			for k, m := range g.Members {
				hm := h.Members[k]
				if hm.Series != m.Series || hm.Start != m.Start || math.Float64bits(hm.EDToRep) != math.Float64bits(m.EDToRep) {
					t.Fatalf("member %d of group %d diverged", k, g.GlobalID)
				}
			}
		}
	}
}

// TestEncodeShardSpecRefusesWideInts: an integer a u32 field cannot carry
// is an error, not a silently wrapped value.
func TestEncodeShardSpecRefusesWideInts(t *testing.T) {
	for name, spoil := range map[string]func(*query.ShardSpec){
		"negative shard":  func(s *query.ShardSpec) { s.Shard = -1 },
		"wide shards":     func(s *query.ShardSpec) { s.Shards = 1 << 32 },
		"negative id":     func(s *query.ShardSpec) { s.Series[0].ID = -2 },
		"negative length": func(s *query.ShardSpec) { s.Lengths[0].Length = -2 },
		"wide group id":   func(s *query.ShardSpec) { s.Lengths[0].Groups[0].GlobalID = math.MaxInt },
		"negative series": func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[1].Series = -1 },
		"negative start":  func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[2].Start = -3 },
		"wide start":      func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].Start = math.MaxInt },
	} {
		spec := tinySpec()
		spoil(&spec)
		if err := EncodeShardSpec(&bytes.Buffer{}, spec); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestDecodeShardSpecRefusesDamage: a stream that is not a whole spec
// stream is ErrBadSpecStream: another magic or version, any truncation
// (each field boundary of a small stream, each block boundary of a large
// one), a flipped byte anywhere (the checksum), an unknown owned flag under
// a valid checksum, and trailing bytes.
func TestDecodeShardSpecRefusesDamage(t *testing.T) {
	refused := func(name string, data []byte) {
		t.Helper()
		if _, err := DecodeShardSpec(bytes.NewReader(data)); !errors.Is(err, ErrBadSpecStream) {
			t.Errorf("%s: err = %v, want ErrBadSpecStream", name, err)
		}
	}
	tiny := encodeSpec(t, tinySpec())
	for cut := 0; cut < len(tiny); cut++ {
		refused("tiny cut", tiny[:cut])
	}
	for i := range tiny {
		flipped := append([]byte(nil), tiny...)
		flipped[i] ^= 0x10
		refused("flipped byte", flipped)
	}
	refused("snapshot magic", append([]byte(persistMagic), tiny[8:]...))
	refused("version 2", reseal(append(append([]byte(specMagic), 2, 0, 0, 0), tiny[12:]...)))
	refused("trailing byte", append(append([]byte(nil), tiny...), 0))
	owned := append([]byte(nil), tiny...)
	owned[tinySpecGroups+4+4] = 2
	refused("owned flag 2", reseal(owned))

	big := encodeSpec(t, chunkSpec())
	for b := blockSize; b < len(big); b += blockSize {
		for _, cut := range []int{b - 1, b, b + 1} {
			refused("chunk cut", big[:cut])
		}
	}
}

// TestTinySpecOffsets pins the count offsets the hostile-count cases write.
func TestTinySpecOffsets(t *testing.T) {
	data := encodeSpec(t, tinySpec())
	for _, c := range []struct {
		name string
		off  int
		want uint32
	}{{"series", tinySpecSeries, 1}, {"values", tinySpecValues, 5}, {"groups", tinySpecGroups, 1}, {"members", tinySpecMembers, 3}} {
		if got := binary.LittleEndian.Uint32(data[c.off:]); got != c.want {
			t.Fatalf("%s count at offset %d = %d, want %d", c.name, c.off, got, c.want)
		}
	}
}

// TestDecodeShardSpecBoundsHostileCounts: a count read before the checksum
// costs what the stream holds, not what it claims.
func TestDecodeShardSpecBoundsHostileCounts(t *testing.T) {
	tiny := encodeSpec(t, tinySpec())
	for _, c := range []struct {
		name string
		off  int
	}{{"series", tinySpecSeries}, {"values", tinySpecValues}, {"groups", tinySpecGroups}, {"members", tinySpecMembers}} {
		t.Run(c.name, func(t *testing.T) {
			stream := withCount(tiny, c.off, math.MaxUint32)
			if grew := decodeAllocs(stream); grew > allocBound(stream) {
				t.Errorf("allocated %d bytes for a %d-byte stream", grew, len(stream))
			}
		})
	}
	label := withCount(tiny, tinySpecValues-(4+1), maxSpecString)
	if grew := decodeAllocs(label); grew > allocBound(label) {
		t.Errorf("label length %d: allocated %d bytes for a %d-byte stream", maxSpecString, grew, len(label))
	}
}

// decodeAllocs decodes stream, which must be refused, and returns the bytes
// the decode allocated.
func decodeAllocs(stream []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeShardSpec(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil {
		panic("hostile stream decoded")
	}
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding a stream may allocate: the decoder's one
// block, and a constant factor of the bytes the stream delivers (a spec
// element takes more room in memory than on the wire, and slices grow by
// doubling).
func allocBound(stream []byte) uint64 { return blockSize + 16<<10 + 64*uint64(len(stream)) }

// FuzzDecodeShardSpec: no stream panics the decoder or makes it allocate
// beyond a constant factor of its size, and every stream it accepts
// re-encodes to exactly its own bytes. The checksum is recomputed first, so
// mutations reach the fields behind it.
func FuzzDecodeShardSpec(f *testing.F) {
	tiny := encodeSpec(f, tinySpec())
	for _, seed := range [][]byte{
		tiny, encodeSpec(f, edgeSpec()), tiny[:len(tiny)/2], tiny[:tinySpecSeries],
		withCount(tiny, tinySpecSeries, math.MaxUint32),
		withCount(tiny, tinySpecValues, math.MaxUint32),
		withCount(tiny, tinySpecGroups, math.MaxUint32),
		withCount(tiny, tinySpecMembers, math.MaxUint32),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec, err := DecodeShardSpec(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocBound(data) {
			t.Fatalf("allocated %d bytes for a %d-byte stream", grew, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrBadSpecStream) {
				t.Fatalf("err = %v, want ErrBadSpecStream", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := EncodeShardSpec(&buf, spec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("a decoded stream re-encoded to other bytes")
		}
	})
}
