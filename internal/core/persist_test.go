package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"onex/internal/dataset"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// snapshotFixture is a small complete snapshot: a normalized dataset, its
// grouping and a configuration with every persisted knob off its zero
// value.
func snapshotFixture(t testing.TB) *Snapshot {
	t.Helper()
	cfg := BuildConfig{ST: 0.2, Lengths: []int{6, 12}, Seed: 3, RebuildDrift: -1}
	work, lo, hi, err := PrepareDataset(dataset.ItalyPower.Scaled(0.3).Generate(1), cfg.Normalize)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := grouping.Build(work, grouping.Config{ST: cfg.ST, Lengths: cfg.Lengths, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	gr.IncrementalMembers = 5 // drift state must survive too
	return &Snapshot{Shards: 3, Cfg: cfg, NormMin: lo, NormMax: hi, BuildTime: 12345, Dataset: work, Grouped: gr}
}

func encodeFixture(t testing.TB) []byte {
	t.Helper()
	return encode(t, snapshotFixture(t))
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := snapshotFixture(t)
	got, err := DecodeSnapshot(bytes.NewReader(encodeFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got.SavedAt.IsZero() {
		t.Error("decoded SavedAt is zero, want the encode timestamp")
	}
	got.SavedAt = want.SavedAt
	if got.Shards != want.Shards || got.NormMin != want.NormMin || got.NormMax != want.NormMax ||
		got.BuildTime != want.BuildTime || !reflect.DeepEqual(got.Cfg, want.Cfg) {
		t.Errorf("header diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.Dataset.Name != want.Dataset.Name || got.Dataset.N() != want.Dataset.N() {
		t.Fatalf("dataset identity diverged: %s/%d vs %s/%d",
			got.Dataset.Name, got.Dataset.N(), want.Dataset.Name, want.Dataset.N())
	}
	for i, s := range want.Dataset.Series {
		if g := got.Dataset.Series[i]; g.Label != s.Label || !reflect.DeepEqual(g.Values, s.Values) {
			t.Fatalf("series %d diverged", i)
		}
	}
	if !reflect.DeepEqual(got.Grouped, want.Grouped) {
		t.Error("grouping diverged after round trip")
	}
}

// failWriter fails after limit bytes, exercising every write error path in
// the encoder, and counts the writes attempted after its failure.
type failWriter struct {
	limit   int
	written int
	failed  bool
	late    int
}

var errDiskFull = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.failed {
		f.late++
	}
	if f.written+len(p) > f.limit {
		n := f.limit - f.written
		if n < 0 {
			n = 0
		}
		f.written = f.limit
		f.failed = true
		return n, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

func TestEncodeFailsCleanlyOnWriteErrors(t *testing.T) {
	check := func(snap *Snapshot, size, limit int) {
		t.Helper()
		fw := &failWriter{limit: limit}
		if err := EncodeSnapshot(fw, snap); err == nil {
			t.Errorf("encode with %d-byte budget succeeded (full size %d)", limit, size)
		}
		if fw.late > 0 {
			t.Errorf("encode with %d-byte budget wrote %d more times after the failure", limit, fw.late)
		}
	}
	snap := snapshotFixture(t)
	size := len(encodeFixture(t))
	// Fail at several byte offsets spanning header, dataset and groups.
	for _, limit := range []int{0, 4, 64, size / 4, size / 2, size - 8} {
		check(snap, size, limit)
	}
	// Fail at each block boundary of a multi-block stream and one byte
	// either side.
	big := chunkSnapshot()
	bigSize := len(encode(t, big))
	for b := blockSize; b < bigSize; b += blockSize {
		for _, limit := range []int{b - 1, b, b + 1} {
			check(big, bigSize, limit)
		}
	}
	check(big, bigSize, bigSize-1)
	if err := EncodeSnapshot(&bytes.Buffer{}, &Snapshot{}); err == nil {
		t.Error("incomplete snapshot: want error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"wrong magic", []byte("NOTANONEXBASE___________")},
		{"truncated magic", []byte("ONEX")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeSnapshot(bytes.NewReader(c.data)); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestLoadRejectsWrongVersion: only the current version and the one before
// it decode; a future version and the retired versions 5, 4 and 3 answer
// ErrBadVersion.
func TestLoadRejectsWrongVersion(t *testing.T) {
	for _, version := range []uint32{99, 5, 4, 3, 0} {
		data := encodeFixture(t)
		binary.LittleEndian.PutUint32(data[len(persistMagic):], version)
		if _, err := DecodeSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", version, err)
		}
	}
}

// normEnd is the stream offset just past the normalization bounds, where a
// version-6 header carries its four retired query knobs.
const normEnd = len(persistMagic) + 4 + (8 + 8 + 1 + 8 + 8)

// shardsEnd is the stream offset just past the shard count:
// magic | version | ST seed norm min max drift | shards
const shardsEnd = normEnd + 8 + 4

// asVersion6 rewrites a version-7 stream as the version-6 layout: the
// retired knobs earlyStop u8, noLB u8, candLimit i64 and patience i64 after
// the normalization bounds, and a fresh checksum.
func asVersion6(v7 []byte, earlyStop, noLB uint8, candLimit, patience int64) []byte {
	old := append([]byte(nil), v7[:normEnd]...)
	old = append(old, earlyStop, noLB)
	old = binary.LittleEndian.AppendUint64(old, uint64(candLimit))
	old = binary.LittleEndian.AppendUint64(old, uint64(patience))
	old = append(old, v7[normEnd:len(v7)-4]...)
	binary.LittleEndian.PutUint32(old[len(persistMagic):], 6)
	return binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
}

// TestDecodesPriorVersion: a version-6 stream is the current layout plus
// the four retired query knobs after the normalization bounds; at their
// defaults it decodes to the current snapshot.
func TestDecodesPriorVersion(t *testing.T) {
	want := snapshotFixture(t)
	got, err := DecodeSnapshot(bytes.NewReader(asVersion6(encodeFixture(t), 0, 0, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cfg, want.Cfg) || got.Shards != want.Shards ||
		got.NormMin != want.NormMin || got.NormMax != want.NormMax ||
		!reflect.DeepEqual(got.Grouped, want.Grouped) {
		t.Errorf("version-6 stream decoded to %+v", got)
	}
}

// TestPriorVersionRefusesRetiredKnobs: a version-6 stream that set a retired
// knob asks for a walk other than the engine's one configuration; it is
// refused with ErrBadVersion naming the field, not loaded to answer
// differently.
func TestPriorVersionRefusesRetiredKnobs(t *testing.T) {
	v7 := encodeFixture(t)
	for field, stream := range map[string][]byte{
		"earlyStop": asVersion6(v7, 1, 0, 0, 0),
		"noLB":      asVersion6(v7, 0, 1, 0, 0),
		"candLimit": asVersion6(v7, 0, 0, 7, 0),
		"patience":  asVersion6(v7, 0, 0, 0, -1),
	} {
		_, err := DecodeSnapshot(bytes.NewReader(stream))
		if !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), field) {
			t.Errorf("%s set: err = %v, want ErrBadVersion naming the field", field, err)
		}
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	data := encodeFixture(t)
	// Flip a byte in the middle of the payload.
	data[len(data)/2] ^= 0xFF
	if _, err := DecodeSnapshot(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted stream loaded without error")
	}
	// Either the checksum catches it or a range check does; both are fine,
	// but silent success is not.
}

func TestLoadDetectsTruncation(t *testing.T) {
	data := encodeFixture(t)
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 2} {
		if _, err := DecodeSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d loaded without error", cut)
		}
	}
	// Cut a multi-block stream at each chunk boundary and one byte either
	// side: every multiple of the chunk size, and the ends of the first
	// value chunk and the first member-record chunk.
	big := encode(t, chunkSnapshot())
	bounds := []int{chunkValues + blockSize, chunkMembers + blockSize}
	for b := blockSize; b < len(big); b += blockSize {
		bounds = append(bounds, b)
	}
	for _, b := range bounds {
		for _, cut := range []int{b - 1, b, b + 1} {
			if _, err := DecodeSnapshot(bytes.NewReader(big[:cut])); err == nil {
				t.Errorf("multi-block stream cut at %d of %d loaded without error", cut, len(big))
			}
		}
	}
}

// chunkSnapshot spans five encoder blocks: one series of three chunks of
// values, and one group with more members than a chunk of member records
// carries.
func chunkSnapshot() *Snapshot {
	values := make([]float64, chunkSeriesLen)
	for i := range values {
		values[i] = math.Sin(float64(i) / 7)
	}
	d := &ts.Dataset{Name: "chunks"}
	d.Append("long", values)
	members := make([]grouping.Member, chunkGroupSize)
	for i := range members {
		members[i] = grouping.Member{Start: i, EDToRep: float64(i) / chunkGroupSize}
	}
	return &Snapshot{
		Shards:  1,
		Cfg:     BuildConfig{ST: 0.2, Lengths: []int{4}},
		Dataset: d,
		Grouped: &grouping.Result{
			ST: 0.2, Lengths: []int{4}, TotalSubseq: chunkGroupSize,
			ByLength: map[int]*grouping.LengthGroups{4: {Length: 4, Groups: []*grouping.Group{{
				Length: 4, Rep: []float64{0.1, 0.2, 0.3, 0.4}, Members: members,
			}}}},
		},
	}
}

// chunkSnapshot's sizes and the stream offsets where its series values and
// its member records start: after the header come the metadata (timestamp,
// build time, one configured length), the name "chunks", the series count,
// the label "long" and the series length; after the values, the two
// subsequence counters, the length count, the length and its group count,
// the representative and the member count.
const (
	chunkSeriesLen = 3 * blockSize / 8
	chunkGroupSize = blockSize/16 + 100
	chunkValues    = shardsEnd + 8 + 8 + 4 + 4 + (4 + 6) + 4 + (4 + 4) + 4
	chunkMembers   = chunkValues + 8*chunkSeriesLen + 8 + 8 + 4 + 4 + 4 + 4*8 + 4
)

// TestChunkBoundariesRoundTrip: a stream spanning several encoder blocks,
// with a series and a group each longer than one decoder chunk, decodes to
// exactly the snapshot encoded, also from a reader that returns short reads.
func TestChunkBoundariesRoundTrip(t *testing.T) {
	want := chunkSnapshot()
	data := encode(t, want)
	if len(data) < 3*blockSize {
		t.Fatalf("stream is %d bytes, want at least 3 blocks", len(data))
	}
	for _, c := range []struct {
		name string
		off  int
		want uint32
	}{{"series length", chunkValues - 4, chunkSeriesLen}, {"members", chunkMembers - 4, chunkGroupSize}} {
		if got := binary.LittleEndian.Uint32(data[c.off:]); got != c.want {
			t.Fatalf("%s count at offset %d = %d, want %d", c.name, c.off, got, c.want)
		}
	}
	for name, r := range map[string]io.Reader{
		"whole":  bytes.NewReader(data),
		"halves": iotest.HalfReader(bytes.NewReader(data)),
	} {
		got, err := DecodeSnapshot(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Cfg, want.Cfg) || !reflect.DeepEqual(got.Dataset, want.Dataset) ||
			!reflect.DeepEqual(got.Grouped, want.Grouped) {
			t.Errorf("%s: decoded a different snapshot", name)
		}
	}
}

// TestEncodeMatchesParentStream: the encoder writes snapshotFixture byte for
// byte as testdata/fixture-v7.onex, which the per-field encoder it replaced
// wrote, apart from the save timestamp (8 bytes at offset shardsEnd); and
// that file decodes to the fixture.
func TestEncodeMatchesParentStream(t *testing.T) {
	golden, err := os.ReadFile("testdata/fixture-v7.onex")
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotFixture(t)
	got := encode(t, want)
	if len(got) != len(golden) {
		t.Fatalf("stream is %d bytes, golden %d", len(got), len(golden))
	}
	copy(got[shardsEnd:shardsEnd+8], golden[shardsEnd:])
	reseal(got)
	for i := range got {
		if got[i] != golden[i] {
			t.Fatalf("stream differs from the golden file first at offset %d", i)
		}
	}
	snap, err := DecodeSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Dataset, want.Dataset) || !reflect.DeepEqual(snap.Grouped, want.Grouped) {
		t.Error("golden file decoded to a different dataset or grouping")
	}
}

// TestCodecAllocs: encoding allocates only its block, whatever the stream's
// size; decoding allocates a bounded number of times per group and series.
func TestCodecAllocs(t *testing.T) {
	snap := snapshotFixture(t)
	if a := testing.AllocsPerRun(20, func() {
		if err := EncodeSnapshot(io.Discard, snap); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Errorf("EncodeSnapshot: %v allocations per call, want at most 2", a)
	}
	groups := 0
	for _, lg := range snap.Grouped.ByLength {
		groups += len(lg.Groups)
	}
	limit := float64(4*(groups+snap.Dataset.N()) + 32)
	data := encode(t, snap)
	r := bytes.NewReader(data)
	if a := testing.AllocsPerRun(20, func() {
		r.Reset(data)
		if _, err := DecodeSnapshot(r); err != nil {
			t.Fatal(err)
		}
	}); a > limit {
		t.Errorf("DecodeSnapshot: %v allocations per call, want at most %v (%d groups, %d series)",
			a, limit, groups, snap.Dataset.N())
	}
}

// tinySnapshot is one series of four values and one length-2 group holding
// all three of its windows — small enough that every field's stream offset
// is a constant (see the tiny* offsets).
func tinySnapshot() *Snapshot {
	d := &ts.Dataset{Name: "t"}
	d.Append("s", []float64{0.1, 0.2, 0.3, 0.4})
	return &Snapshot{
		Shards:  1,
		Cfg:     BuildConfig{ST: 0.2},
		Dataset: d,
		Grouped: &grouping.Result{
			ST: 0.2, Lengths: []int{2}, TotalSubseq: 3,
			ByLength: map[int]*grouping.LengthGroups{2: {Length: 2, Groups: []*grouping.Group{{
				Length: 2, Rep: []float64{0.15, 0.25},
				Members: []grouping.Member{{Start: 1}, {Start: 0, EDToRep: 0.1}, {Start: 2, EDToRep: 0.2}},
			}}}},
		},
	}
}

// Stream offsets of tinySnapshot's count fields: after the header come the
// metadata (timestamp, build time, no configured lengths), the dataset name
// "t", the series count and the label "s".
const (
	tinyLabel     = shardsEnd + 8 + 8 + 4 + (4 + 1) + 4
	tinySeriesLen = tinyLabel + (4 + 1)
	tinyGroups    = tinySeriesLen + 4 + 4*8 + 8 + 8 + 4 + 4
	tinyMembers   = tinyGroups + 4 + 2*8
)

func encode(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withCount returns a copy of data with the u32 at off set to v and the
// checksum recomputed.
func withCount(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return reseal(out)
}

// reseal recomputes the trailing checksum in place.
func reseal(data []byte) []byte {
	if n := len(data) - 4; n >= 0 {
		binary.LittleEndian.PutUint32(data[n:], crc32.ChecksumIEEE(data[:n]))
	}
	return data
}

func TestTinySnapshotOffsets(t *testing.T) {
	data := encode(t, tinySnapshot())
	for _, c := range []struct {
		name string
		off  int
		want uint32
	}{{"series length", tinySeriesLen, 4}, {"groups", tinyGroups, 1}, {"members", tinyMembers, 3}} {
		if got := binary.LittleEndian.Uint32(data[c.off:]); got != c.want {
			t.Fatalf("%s count at offset %d = %d, want %d", c.name, c.off, got, c.want)
		}
	}
	if _, err := DecodeSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBoundsHostileCounts: a count read before the checksum costs
// what the stream holds, not what it claims. Each stream states a count
// far beyond its bytes; decoding must fail and allocate well under a
// megabyte doing it.
func TestDecodeBoundsHostileCounts(t *testing.T) {
	data := encode(t, tinySnapshot())
	for _, c := range []struct {
		name   string
		stream []byte
		format bool // the bound refuses it (ErrBadFormat), not the short read
	}{
		{"series length 2^28", withCount(data, tinySeriesLen, 1<<28), false},
		{"label length 2^20", withCount(data, tinyLabel, 1<<20), false},
		{"group count 2^32-1", withCount(data, tinyGroups, math.MaxUint32), true},
		{"member count 2^32-1", withCount(data, tinyMembers, math.MaxUint32), true},
		{"members beyond windows", withCount(data, tinyMembers, 4), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeSnapshot(bytes.NewReader(c.stream))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("decoded")
			}
			if c.format && !errors.Is(err, ErrBadFormat) {
				t.Errorf("err = %v, want ErrBadFormat", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("allocated %d bytes for a %d-byte stream", grew, len(c.stream))
			}
		})
	}
}

// TestDecodeRefusesRepeatsAndNonFinite: a length stated twice, a NaN or
// infinite series value, representative or member distance, and member
// distances out of LSI order (a swapped pair, a negative distance) are
// ErrBadFormat even under a valid checksum, as query.BuildLocalShard
// refuses the same group shipped.
func TestDecodeRefusesRepeatsAndNonFinite(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(*Snapshot)
	}{
		{"repeated length", func(s *Snapshot) { s.Grouped.Lengths = []int{2, 2} }},
		{"NaN value", func(s *Snapshot) { s.Dataset.Series[0].Values[2] = math.NaN() }},
		{"infinite representative", func(s *Snapshot) { s.Grouped.ByLength[2].Groups[0].Rep[1] = math.Inf(1) }},
		{"NaN member distance", func(s *Snapshot) { s.Grouped.ByLength[2].Groups[0].Members[1].EDToRep = math.NaN() }},
		{"swapped member pair", func(s *Snapshot) {
			ms := s.Grouped.ByLength[2].Groups[0].Members
			ms[1].EDToRep, ms[2].EDToRep = ms[2].EDToRep, ms[1].EDToRep
		}},
		{"negative member distance", func(s *Snapshot) { s.Grouped.ByLength[2].Groups[0].Members[0].EDToRep = -0.05 }},
		{"infinite ST", func(s *Snapshot) { s.Cfg.ST = math.Inf(1) }},
		{"NaN normalization bound", func(s *Snapshot) { s.NormMax = math.NaN() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			snap := tinySnapshot()
			c.spoil(snap)
			if _, err := DecodeSnapshot(bytes.NewReader(encode(t, snap))); !errors.Is(err, ErrBadFormat) {
				t.Errorf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

// FuzzDecodeSnapshot: no stream panics the decoder or makes it allocate
// beyond its size, and every stream it accepts re-encodes to one that
// decodes to the same dataset and grouping. The checksum is recomputed
// first, so mutations reach the checks behind it too.
func FuzzDecodeSnapshot(f *testing.F) {
	// Small seeds only: the fuzzer minimizes every new input it finds, and
	// a full-size stream makes that take most of a short run.
	tiny := encode(f, tinySnapshot())
	for _, seed := range [][]byte{
		tiny, asVersion6(tiny, 0, 0, 0, 0), tiny[:len(tiny)/2], tiny[:shardsEnd],
		withCount(tiny, tinySeriesLen, 1<<28),
		withCount(tiny, tinyGroups, math.MaxUint32),
		withCount(tiny, tinyMembers, math.MaxUint32),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(reseal(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if again.Shards != snap.Shards || !reflect.DeepEqual(again.Dataset, snap.Dataset) ||
			!reflect.DeepEqual(again.Grouped, snap.Grouped) {
			t.Fatal("re-encoded stream decoded to a different snapshot")
		}
	})
}
