package query

import (
	"context"

	"onex/internal/obs"
)

// ShardTransport is the seam between the scatter-gather coordinator
// (Scatter) and one shard's index. Every shard interaction of the engine
// — the per-length representative scans, k-NN verification, group-member
// DTW evaluation, range search, stats — crosses this interface, so the same
// coordinator code drives an in-process shard (LocalShard) and a remote
// worker process (internal/shardrpc.Client) interchangeably.
//
// The contract is bit-exactness: for a fixed shard restriction, every
// implementation must return the same float64 bit patterns the in-process
// engine computes, because the coordinator replays one decision procedure
// (pivot walks, patience cuts, heap pushes, tie rules) against these
// values, whatever the layout. Distances that can be ±Inf travel as math.Float64bits
// (JSON cannot carry Inf); finite distances travel as plain float64, which
// Go's encoding/json round-trips exactly (shortest-round-trip encoding).
//
// Implementations must be safe for concurrent calls: the coordinator fans
// one query's per-shard work out on goroutines, and many queries run at
// once.
type ShardTransport interface {
	// Info describes the shard's slice of the layout: which series it
	// holds and which global groups it scans. The coordinator validates
	// the partition against it at assembly.
	Info() ShardInfo
	// ScanBest runs the tightening-bound argmin representative scan over
	// the shard's owned groups of one length (the compareRep step of
	// Algorithm 2.A, restricted to this shard).
	ScanBest(ctx context.Context, req ScanBestRequest) (ScanBestResponse, error)
	// ScanFixed runs the fixed-cutoff representative cascade of the k-NN
	// scan over the shard's owned groups of one length, returning the
	// survivors in ascending global-group order.
	ScanFixed(ctx context.Context, req ScanFixedRequest) (ScanFixedResponse, error)
	// VerifyK runs the k-NN member verification of one length as a single
	// phase: the shard walks its own members of the candidate groups, in
	// the given order, and returns every finite distance it found (see
	// LocalShard.VerifyK for the bound it early-abandons against).
	VerifyK(ctx context.Context, req VerifyKRequest) (VerifyKResponse, error)
	// EvalMembers evaluates one round of group members against a bound
	// snapshot: per item, LB_Kim and the early-abandoning DTW — the remote
	// half of the best-match pivot walk (see Scatter.evalRound).
	EvalMembers(ctx context.Context, req EvalMembersRequest) (EvalMembersResponse, error)
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
func (r *ScanBestResponse) ObsPayload() *WorkerObs    { return r.Obs }
func (r *ScanFixedResponse) ObsPayload() *WorkerObs   { return r.Obs }
func (r *VerifyKResponse) ObsPayload() *WorkerObs     { return r.Obs }
func (r *EvalMembersResponse) ObsPayload() *WorkerObs { return r.Obs }
func (r *RangeResponse) ObsPayload() *WorkerObs       { return r.Obs }

// MemberRef addresses one group member on the wire: the global series id
// and window start (the window length is the request's Length). The member
// values are reconstructed shard-side from the shipped series, bit-exact.
type MemberRef struct {
	Series int `json:"series"`
	Start  int `json:"start"`
}

// ScanBestRequest asks for the argmin representative over the shard's
// owned groups of one length.
type ScanBestRequest struct {
	Length int       `json:"length"`
	Query  []float64 `json:"query"`
	// Workers bounds the shard-side fan-out of the scan (answer-invariant;
	// see LocalShard.ScanBest).
	Workers int `json:"workers"`
}

// ScanBestResponse is the shard-local argmin. BestBits is the raw
// (unnormalized) DTW as Float64bits; ties on bit-equal distances resolve
// to the smallest global group id.
type ScanBestResponse struct {
	Found    bool       `json:"found"`
	GroupID  int        `json:"groupId"`
	BestBits uint64     `json:"bestBits"`
	Trace    Trace      `json:"trace"`
	Obs      *WorkerObs `json:"obs,omitempty"`
}

// ScanFixedRequest asks for the fixed-cutoff k-NN representative cascade
// over the shard's owned groups of one length. CutoffBits is the raw
// cutoff (k-th distance × divisor + group radius) as Float64bits — +Inf
// until the heap fills.
type ScanFixedRequest struct {
	Length     int       `json:"length"`
	Query      []float64 `json:"query"`
	CutoffBits uint64    `json:"cutoffBits"`
	Workers    int       `json:"workers"`
}

// FixedHit is one representative that survived the fixed-cutoff cascade.
// Dist is finite (survivors are exactly the non-abandoned DTWs), so it
// travels as a plain float64.
type FixedHit struct {
	GroupID int     `json:"groupId"`
	Dist    float64 `json:"dist"`
}

// ScanFixedResponse lists the surviving representatives in ascending
// global-group order.
type ScanFixedResponse struct {
	Hits  []FixedHit `json:"hits"`
	Trace Trace      `json:"trace"`
	Obs   *WorkerObs `json:"obs,omitempty"`
}

// VerifyKRequest asks a shard to verify its members of one length's k-NN
// candidate groups in a single call. Candidates are the merged ScanFixed
// survivors — global group id and representative DTW — in the coordinator's
// visit order (ascending distance, ties by id); a shard skips the ids it
// holds no member of. CutoffBits is the heap's k-th distance × divisor when
// the phase starts, as Float64bits (+Inf until the heap fills); RadiusRaw is
// the group-radius term of the group cut (finite, raw-ED units).
type VerifyKRequest struct {
	Length     int        `json:"length"`
	Query      []float64  `json:"query"`
	K          int        `json:"k"`
	CutoffBits uint64     `json:"cutoffBits"`
	RadiusRaw  float64    `json:"radiusRaw"`
	Workers    int        `json:"workers"`
	Candidates []FixedHit `json:"candidates"`
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

// EvalMembersRequest asks for one round of member evaluations against a
// bound snapshot: per item, LB_Kim and the early-abandoning DTW at
// BoundBits (Float64bits; +Inf while no bound exists). Items reference
// members of ONE global group, all resident on this shard.
type EvalMembersRequest struct {
	Length    int         `json:"length"`
	Query     []float64   `json:"query"`
	BoundBits uint64      `json:"boundBits"`
	Workers   int         `json:"workers"`
	Items     []MemberRef `json:"items"`
}

// EvalMembersResponse carries the round results positionally: LbBits[i]
// and DsBits[i] answer Items[i] (both as Float64bits — ds is +Inf when
// the lower bound already proves the member hopeless or the DTW abandons).
// DTWComputed counts the DTWs that actually ran (Trace accounting).
type EvalMembersResponse struct {
	LbBits      []uint64   `json:"lbBits"`
	DsBits      []uint64   `json:"dsBits"`
	DTWComputed int        `json:"dtwComputed"`
	Obs         *WorkerObs `json:"obs,omitempty"`
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
// to those series. A worker rebuilds the exact in-process index from it
// (BuildLocalShard runs the same rspace/query constructors the coordinator
// runs for a local shard, on the same inputs), so remote answers are
// bit-identical to local ones.
//
// Generation identifies one immutable incarnation of the shard's state:
// every maintenance step that touches the shard ships a fresh generation,
// and workers key their resident state by (Dataset, Generation, Shard) —
// the idempotency key that makes shipping and re-shipping safe to retry.
type ShardSpec struct {
	Dataset    string  `json:"dataset"`
	Generation string  `json:"generation"`
	Shard      int     `json:"shard"`
	Shards     int     `json:"shards"`
	ST         float64 `json:"st"`
	DcTopK     int     `json:"dcTopK"`
	// Opts are the query-processor options (parallelism defaults are
	// resolved worker-side).
	Opts    Options      `json:"opts"`
	Series  []SpecSeries `json:"series"`
	Lengths []SpecLength `json:"lengths"`
}

// SpecSeries is one shipped series: its global id and normalized values.
type SpecSeries struct {
	ID     int       `json:"id"`
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// SpecLength is the restriction of one indexed length to the shard.
type SpecLength struct {
	Length int         `json:"length"`
	Groups []SpecGroup `json:"groups"`
}

// SpecGroup is the restriction of one global group: the shared
// representative, the shard-resident members (global series ids, ED order
// preserved) and whether this shard owns the representative scan.
type SpecGroup struct {
	GlobalID int          `json:"globalId"`
	Owned    bool         `json:"owned"`
	Rep      []float64    `json:"rep"`
	Members  []SpecMember `json:"members"`
}

// SpecMember is one shard-resident member with its global series id and
// the (finite) ED to the group representative.
type SpecMember struct {
	Series  int     `json:"series"`
	Start   int     `json:"start"`
	EDToRep float64 `json:"edToRep"`
}
