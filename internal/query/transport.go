package query

import (
	"context"

	"onex/internal/obs"
)

// ShardTransport is the seam between the scatter-gather coordinator
// (Scatter) and one shard's index. Every shard interaction of the engine
// — the per-length representative scans, group-member DTW
// evaluation, range search, stats — crosses this interface, so the same
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
	// EvalMembers evaluates one round of group members against a bound
	// snapshot: per item, LB_Kim and the early-abandoning DTW — the remote
	// half of the coordinator's round-replay mining (see Scatter.evalRound).
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
	// HintBits is the coordinator's best-so-far bound as Float64bits — an
	// upper cutoff hint for early abandoning. The Scatter coordinator pins
	// it to +Inf for Q1 (the per-length argmin feeds the pivot walk and
	// the Sec. 5.3 early-stop rule, so external pruning would corrupt it),
	// but the protocol carries it for bound-aware scans.
	HintBits uint64 `json:"hintBits"`
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
