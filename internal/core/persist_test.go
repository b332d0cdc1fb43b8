package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"onex/internal/dataset"
	"onex/internal/grouping"
	"onex/internal/query"
)

// snapshotFixture is a small complete snapshot: a normalized dataset, its
// grouping and a configuration with every persisted knob off its zero
// value.
func snapshotFixture(t *testing.T) *Snapshot {
	t.Helper()
	cfg := BuildConfig{
		ST: 0.2, Lengths: []int{6, 12}, Seed: 3, RebuildDrift: -1, DcTopK: 7,
		Query: query.Options{CandidateLimit: 7, Patience: 16, DisableEarlyStop: true},
	}
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

func encodeFixture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snapshotFixture(t)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
// the encoder.
type failWriter struct {
	limit   int
	written int
}

var errDiskFull = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		n := f.limit - f.written
		if n < 0 {
			n = 0
		}
		f.written = f.limit
		return n, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

func TestEncodeFailsCleanlyOnWriteErrors(t *testing.T) {
	snap := snapshotFixture(t)
	size := len(encodeFixture(t))
	// Fail at several byte offsets spanning header, dataset and groups.
	for _, limit := range []int{0, 4, 64, size / 4, size / 2, size - 8} {
		if err := EncodeSnapshot(&failWriter{limit: limit}, snap); err == nil {
			t.Errorf("encode with %d-byte budget succeeded (full size %d)", limit, size)
		}
	}
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
// it decode; a future version and the retired version 3 both answer
// ErrBadVersion.
func TestLoadRejectsWrongVersion(t *testing.T) {
	for _, version := range []uint32{99, 3, 0} {
		data := encodeFixture(t)
		binary.LittleEndian.PutUint32(data[len(persistMagic):], version)
		if _, err := DecodeSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", version, err)
		}
	}
}

// TestDecodesPriorVersion: a version-4 stream is the current layout without
// the DcTopK field; it decodes with the default retention.
func TestDecodesPriorVersion(t *testing.T) {
	data := encodeFixture(t)
	// magic | version | ST seed norm min max earlyStop noLB limit patience drift | shards | DcTopK
	topK := len(persistMagic) + 4 + (8 + 8 + 1 + 8 + 8 + 1 + 1 + 8 + 8 + 8) + 4
	v4 := append(append([]byte(nil), data[:topK]...), data[topK+8:len(data)-4]...)
	binary.LittleEndian.PutUint32(v4[len(persistMagic):], 4)
	v4 = binary.LittleEndian.AppendUint32(v4, crc32.ChecksumIEEE(v4))
	got, err := DecodeSnapshot(bytes.NewReader(v4))
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotFixture(t)
	want.Cfg.DcTopK = 0
	if !reflect.DeepEqual(got.Cfg, want.Cfg) || got.Shards != want.Shards || !reflect.DeepEqual(got.Grouped, want.Grouped) {
		t.Errorf("version-4 stream decoded to %+v", got)
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
}
