package query

import (
	"context"

	"onex/internal/obs"
)

// ShardTransport is the seam between the scatter-gather coordinator
// (Scatter) and one shard's index. Every shard interaction of the engine
// — the per-length representative scans, k-NN verification, range search,
// stats — crosses this interface, so the same coordinator code drives an
// in-process shard (LocalShard) and a remote worker process
// (internal/shardrpc.Client) interchangeably. The best-match group walk
// does not cross it: the coordinator holds every series and mines the
// winning group itself (Scatter.mineGroup).
//
// The contract is bit-exactness: for a fixed shard restriction, every
// implementation must return the same float64 bit patterns the in-process
// engine computes, because the coordinator replays one decision procedure
// (the argmin merge and its pivot, heap pushes, tie rules) against these
// values, whatever the layout. Distances that can be ±Inf travel as
// math.Float64bits (JSON cannot carry Inf); finite distances travel as
// plain float64, which Go's encoding/json round-trips exactly
// (shortest-round-trip encoding).
//
// Implementations must be safe for concurrent calls: the coordinator fans
// one query's per-shard work out on goroutines, and many queries run at
// once.
type ShardTransport interface {
	// Info describes the shard's slice of the layout: which series it
	// holds and which global groups it scans. The coordinator validates
	// the partition against it at assembly.
	Info() ShardInfo
	// Scan runs the representative scan of one length over the shard's
	// owned groups (the compareRep step of Algorithm 2.A, restricted to
	// this shard): every representative at or below the request's cutoff
	// (K = 0), or the K nearest of them (K > 0; see LocalShard.Scan).
	Scan(ctx context.Context, req ScanRequest) (ScanResponse, error)
	// VerifyK runs one k-NN member-verification phase of one length: the
	// shard walks its own members of the candidate groups, in the given
	// order, and returns every finite distance it found (see
	// LocalShard.VerifyK for the bound it early-abandons against).
	VerifyK(ctx context.Context, req VerifyKRequest) (VerifyKResponse, error)
	// Range answers a range query over the shard's restriction with
	// results remapped to global series/group ids.
	Range(ctx context.Context, req RangeRequest) (RangeResponse, error)
	// Stats reports the shard's resident index population (serving
	// observability; remote transports may serve a cached value).
	Stats() ShardStats
	// Close releases transport resources (idle connections); the zero-cost
	// local transport no-ops.
	Close() error
}

// ShardInfo is a shard's slice of the layout.
type ShardInfo struct {
	// Shard is the shard index within the layout.
	Shard int `json:"shard"`
	// Series lists the global series ids the shard holds, ascending.
	Series []int `json:"series"`
	// Owned maps each indexed length to the global group ids whose
	// representative this shard scans, ascending. Exactly one shard owns
	// each global group.
	Owned map[int][]int `json:"owned"`
}

// ShardStats is one shard's resident index population.
type ShardStats struct {
	// Series counts the series routed to the shard.
	Series int `json:"series"`
	// Groups counts the restricted groups across lengths.
	Groups int `json:"groups"`
	// Subsequences counts the indexed subsequences resident in the shard.
	Subsequences int64 `json:"subsequences"`
	// IndexBytes estimates the shard's GTI+LSI size.
	IndexBytes int64 `json:"indexBytes"`
}

// ShardStat is one shard's ShardStats under its index in the layout: the
// per-shard entry the engine, the library and the REST surface report.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	ShardStats
}

// WorkerObs is the worker-side observability payload riding in each query
// response. WallMicros is always populated by remote workers (one integer,
// cheap enough to pay untraced) so the coordinator can passively attribute
// call wall time to worker compute vs wire overhead. Spans carry the
// worker's own recorded spans — present only when the coordinator asked
// for tracing (the X-Onex-Trace request header) — with StartMicros offsets
// in the worker handler's timebase; the coordinator rebases them into the
// request trace.
//
// The payload is strictly observational: LocalShard leaves Obs nil, and no
// coordinator decision reads it, so answers stay bit-identical across
// transports.
type WorkerObs struct {
	WallMicros int64      `json:"wallMicros"`
	Spans      []obs.Span `json:"spans,omitempty"`
}

// ObsPayload returns the response's worker observability payload (nil for
// local transports). Each query response implements it so transport
// clients can extract the payload generically.
func (r *ScanResponse) ObsPayload() *WorkerObs    { return r.Obs }
func (r *VerifyKResponse) ObsPayload() *WorkerObs { return r.Obs }
func (r *RangeResponse) ObsPayload() *WorkerObs   { return r.Obs }

// ScanRequest asks for the representative scan of one length over the
// shard's owned groups. CutoffBits is the raw cutoff as Float64bits: +Inf
// for a best match and for a k-NN until its heap fills, k-th distance ×
// divisor + group radius after. K = 0 asks for every representative whose
// DTW is at or below the cutoff; K > 0 for the K nearest of them. Workers
// bounds the shard-side fan-out (answer-invariant).
type ScanRequest struct {
	Length     int       `json:"length"`
	Query      []float64 `json:"query"`
	K          int       `json:"k"`
	CutoffBits uint64    `json:"cutoffBits"`
	Workers    int       `json:"workers"`
}

// ScanHit is one representative the scan computed at or below its cutoff:
// global group id and raw (unnormalized) DTW. Dist is finite, so it travels
// as a plain float64.
type ScanHit struct {
	GroupID int     `json:"groupId"`
	Dist    float64 `json:"dist"`
}

// ScanResponse lists the scan's representatives: in ascending global-group
// order for K = 0, in (distance, global id) order for K > 0.
type ScanResponse struct {
	Hits  []ScanHit  `json:"hits"`
	Trace Trace      `json:"trace"`
	Obs   *WorkerObs `json:"obs,omitempty"`
}

// VerifyKRequest asks a shard to verify its members of one length's k-NN
// candidate groups in a single call. Candidates are merged Scan hits —
// global group id and representative DTW — in the coordinator's visit order
// (ascending distance, ties by id); a shard skips the ids it holds no member
// of. CutoffBits is the heap's k-th distance × divisor when the phase
// starts, as Float64bits (+Inf until the heap fills); RadiusRaw is the
// group-radius term of the group cut (finite, raw-ED units). Seeds are the
// heap's distances when the phase starts, each Dist × divisor in raw units of
// this length (at most K, none NaN or negative); the shard's own ranking
// starts from them.
type VerifyKRequest struct {
	Length     int       `json:"length"`
	Query      []float64 `json:"query"`
	K          int       `json:"k"`
	CutoffBits uint64    `json:"cutoffBits"`
	RadiusRaw  float64   `json:"radiusRaw"`
	Workers    int       `json:"workers"`
	Candidates []ScanHit `json:"candidates"`
	Seeds      []float64 `json:"seeds,omitempty"`
}

// VerifiedHit is one member whose DTW the shard computed to completion:
// global group id, global series id, window start and the raw distance as
// Float64bits.
type VerifiedHit struct {
	GroupID  int    `json:"groupId"`
	Series   int    `json:"series"`
	Start    int    `json:"start"`
	DistBits uint64 `json:"distBits"`
}

// VerifyKResponse lists the finite distances in the shard's walk order
// (candidate order, then the group's ED order) plus the work behind them.
// Members the shard pruned or abandoned are absent: they are provably ones
// the coordinator's replay would not push.
type VerifyKResponse struct {
	Hits        []VerifiedHit `json:"hits"`
	PrunedByKim int           `json:"prunedByKim"`
	DTWComputed int           `json:"dtwComputed"`
	Obs         *WorkerObs    `json:"obs,omitempty"`
}

// RangeRequest asks for a range search over the shard's restriction.
type RangeRequest struct {
	Length  int       `json:"length"`
	Query   []float64 `json:"query"`
	Radius  float64   `json:"radius"`
	Exact   bool      `json:"exact"`
	Workers int       `json:"workers"`
}

// RangeHit is one range result with global ids. Distances are finite
// (results are within the radius; the guaranteed path reports ST).
type RangeHit struct {
	Series     int     `json:"series"`
	Start      int     `json:"start"`
	Dist       float64 `json:"dist"`
	RawDTW     float64 `json:"rawDtw"`
	GroupID    int     `json:"groupId"`
	Guaranteed bool    `json:"guaranteed"`
}

// RangeResponse lists the shard's range results in its group order.
type RangeResponse struct {
	Results []RangeHit `json:"results"`
	Trace   Trace      `json:"trace"`
	Obs     *WorkerObs `json:"obs,omitempty"`
}

// ---- shard shipping -----------------------------------------------------

// ShardSpec is the complete recipe for one shard's index: the shard's
// series (normalized values) plus the restriction of the global grouping
// to those series. BuildLocalShard builds the shard from it — in the engine
// for an in-process shard, in a worker for a shipped one — so remote answers
// are bit-identical to local ones. It carries no query settings: the query
// algorithm has one configuration, and each request brings its own worker
// budget.
//
// A worker is shipped it as the binary stream core.EncodeShardSpec writes.
//
// Generation identifies one immutable incarnation of the shard's state:
// every maintenance step that touches the shard ships a fresh generation,
// and workers key their resident state by (Dataset, Generation, Shard) —
// the idempotency key that makes shipping and re-shipping safe to retry.
type ShardSpec struct {
	Dataset    string
	Generation string
	Shard      int
	Shards     int
	ST         float64
	Series     []SpecSeries
	Lengths    []SpecLength
}

// SpecSeries is one shipped series: its global id and normalized values.
type SpecSeries struct {
	ID     int
	Label  string
	Values []float64
}

// SpecLength is the restriction of one indexed length to the shard, its
// groups in strictly ascending GlobalID order.
type SpecLength struct {
	Length int
	Groups []SpecGroup
}

// SpecGroup is the restriction of one global group: the shared
// representative, the shard-resident members (global series ids, ED order
// preserved) and whether this shard owns the representative scan.
type SpecGroup struct {
	GlobalID int
	Owned    bool
	Rep      []float64
	Members  []SpecMember
}

// SpecMember is one shard-resident member with its global series id and
// the ED to the group representative (finite, non-negative, and not below
// the previous member's: members come in LSI order).
type SpecMember struct {
	Series  int
	Start   int
	EDToRep float64
}
