// Package onex reproduces ONEX (Neamtu et al., PVLDB 10(3), 2016):
// interactive time-series exploration powered by the marriage of
// similarity distances — cheap Euclidean-distance grouping offline,
// DTW-based exploration online.
//
// # Quick start
//
// CI (.github/workflows/ci.yml, "CI" badge once the repo has a canonical
// remote): every push runs gofmt, go vet, the race-enabled test suite on
// Go 1.22/1.23, and a one-iteration benchmark smoke pass.
//
// Build and test from a clean checkout (no dependencies beyond the Go
// toolchain):
//
//	go build ./...      # compile every package and binary
//	go test ./...       # full test suite
//	make ci             # the exact CI gate: fmt-check, vet, build,
//	                    # race tests, bench smoke
//
// Explore a dataset end to end:
//
//	go run ./examples/quickstart
//
// The distance kernel everything sits on lives in internal/dist: ED/DTW
// with the paper's normalizations, LB_Kim/LB_Keogh lower bounds with
// early abandoning, warping envelopes, and an allocation-reusing DTW
// workspace whose unconstrained path is a cache-blocked fused-row-pair
// kernel — bit-identical to the plain two-row recurrence (locked by a
// 2000-trial exact-equality test). Run the package benchmarks with:
//
//	go test -bench . -run '^$' ./internal/dist
//
// Performance is measured by the repository's benchmark — BENCHMARK.json,
// `bash benchmark/run.sh -workload scan|refine|serve|ingest|remote` — end
// to end and per layer; no other number in this repository is a claim.
//
// # One request, two entry points
//
// The paper writes all of its query classes in one OUTPUT … FROM … WHERE …
// MATCH template; the code has one value for it. A Request names its family
// (FamilyMatch, FamilyRange, FamilySeasonal) and fills the clauses that
// family reads; Exec answers one, ExecBatch many of any mix, and a Result
// carries the family's slice or the request's own error:
//
//	r := base.Exec(ctx, onex.Request{Family: onex.FamilyMatch, Query: q, Mode: onex.MatchAny, K: 5})
//	rs := base.ExecBatch(ctx, []onex.Request{
//		{Family: onex.FamilyMatch, Query: q, Mode: onex.MatchAny},
//		{Family: onex.FamilyRange, Query: q, Length: 24, Radius: 0.1, Exact: true},
//		{Family: onex.FamilySeasonal, SeriesID: -1, Length: 24},
//	})
//	for _, r := range rs {
//		// r.Matches, r.Ranges or r.Patterns answers its request; r.Err is
//		// per request (ragged/NaN inputs fail alone, exactly as they do
//		// through Exec).
//	}
//
// The same value travels every layer — the HTTP decoders build it,
// internal/hub keys its result cache off it, internal/shard and the
// query.Scatter coordinator execute it — so a request answers the same bits
// whichever entry point or batch position carries it. ctx bounds the query
// (a canceled or expired one stops between lengths, member rounds and
// groups and yields ctx's error, never a partial answer) and carries its
// trace, when it has one: obs.ContextWithTrace. BestMatch, BestKMatches,
// RangeSearch, RangeSearchExact, Seasonal and SeasonalAll spell the paper's
// classes as plain calls over Exec.
//
// # Parallel execution
//
// Both stages shard across a bounded worker pool (internal/parallel). The
// offline build parallelizes across subsequence lengths and across
// series-chunks within a length with a deterministic merge, so a fixed
// seed yields an identical base at every worker count. Online queries fan
// the representative scan and group mining out with a shared atomic
// best-so-far bound and pooled DTW workspaces; the parallel paths are
// answer-invariant — BestMatch/BestKMatches/RangeSearch return identical
// results at every setting (proven by the equivalence suites in
// internal/query and internal/grouping, enforced ≥ 70% covered in CI).
//
//	base, _ := onex.Build("demo", series, onex.Options{
//		ST:          0.2,
//		Parallelism: 0, // 0 = GOMAXPROCS; 1 forces sequential
//	})
//	m, _ := base.BestMatch(q, onex.MatchAny) // one query, many workers
//	rs := base.ExecBatch(ctx, reqs)          // many requests at once
//
// A batch splits the worker budget between its requests and within them: at
// least Parallelism requests run one worker each, fewer share the rest as
// intra-query fan-out, so a batch of one costs what the single call does.
//
// # Streaming ingestion
//
// Bases grow in two directions without rebuilding. Extend adds whole new
// series; Append (new) streams points onto an existing series — the live-
// traffic shape where sensors and tickers deliver observations
// continuously. Only the suffix subsequences whose windows overlap the
// appended points are pushed through Algorithm 1's nearest-representative
// assignment, and the index layers (Dc rows, envelopes, visit orders)
// refresh incrementally for the touched groups, so absorbing a point batch
// costs O(new-windows × groups × length), not a rebuild (the benchmark's
// `ingest` workload times both).
//
//	grown, err := base.Append(seriesID, 0.41, 0.43, 0.40) // new points
//	grown.Drift()                                         // incremental fraction
//
// Both paths return a fresh *Base and leave the receiver untouched, so
// in-flight queries never block (internal/hub swaps the pointer under a
// generation counter and re-snapshots to disk). Incremental assignment
// never splits or re-shuffles existing groups, so the grouping slowly
// drifts from what a from-scratch build would produce; the engine tracks
// that drift and, once an append or extend would push it past
// Options.RebuildDrift (default 0.25), transparently re-runs the full
// offline construction over the final data — equal to a from-scratch Build
// over the (pinned) indexed length set — and resets it. The
// equivalence bar is enforced by the append-vs-rebuild property suite:
// after any Append/Extend interleaving, RangeSearchExact answers match a
// from-scratch Build over the final data within 1e-12, and the rebuild
// branch reproduces the from-scratch base exactly.
//
// # Sharded serving
//
// There is one engine (internal/shard) and one query coordinator
// (query.Scatter); a base's layout is how many shards that engine holds.
// Shards 0 and 1 both mean the one-shard layout: a single in-process shard
// whose index is built over the global grouping itself. Options.Shards > 1
// hash-partitions the dataset's series across N shards, each holding its
// own GTI/LSI index layers — the inter-representative distance lists and
// envelopes — over just its series, derived concurrently on the worker pool
// and queried by
// scatter-gather: the representative scan fans across shard-owned groups
// with a shared atomic best-so-far bound (each global group is scanned by
// exactly one shard), range search runs verbatim per shard and concatenates,
// and group mining replays the global pivot walk. The similarity grouping
// itself stays global and deterministic — ONEX's query semantics are
// grouping-dependent, so independent per-shard groupings would change
// answers — which is what makes sharding a pure scale knob:
//
//	base, _ := onex.Build("big", series, onex.Options{ST: 0.2, Shards: 8})
//
// answers BestMatch / BestKMatches / RangeSearch(Exact) / Seasonal
// identically to Shards: 0, enforced by the layout-equivalence property
// suite in internal/shard (random datasets, query mixes and Append/Extend
// interleavings at Parallelism 1 and 8, under -race). The SP-Space
// guidance surface — RecommendThreshold, DegreeOf, Stats.STHalf/STFinal —
// is likewise computed from the one global grouping (via an on-demand
// inter-representative distance oracle, so no global O(g²) matrix is ever
// materialized) and is bit-identical at every shard count. The tie rule,
// stated once: two representatives at bit-equal DTW from the query
// (impossible on continuous data, possible with duplicated windows) resolve
// to the smaller global group id at every layout and worker count.
// WithThreshold adapts only the one-shard in-process layout — the merge
// rule reads distances across the whole grouping, which only a shard
// indexing all of it holds — and refuses when Shards > 1 or ShardWorkers
// is set. Appends and extends route
// deterministically — series → shard is a pure hash — and refresh only the
// shards whose series or groups the step touched; snapshots persist the
// global payload plus the layout in one stream (format v5 adds the DcTopK
// retention setting; v4 streams load with the default retention, older
// ones are refused) and re-derive the shards on load. Stats().PerShard,
// the hub Info and /v1/datasets/{name}/stats report the per-shard series/
// group/byte populations.
//
// # Index memory
//
// The one index layer that grew quadratically with the grouping — the
// per-length inter-representative distance matrix Dc (Def. 10), O(g²)
// per indexed length — is stored sparsely: each representative retains
// only its Options.DcTopK nearest entries (default 32; negative retains
// all). This is safe because the dense matrix is consumed ONLY at build
// time — the merge thresholds it feeds are stored exactly, and every query
// path that needs an inter-representative distance recomputes it on demand
// from the representatives — so retention is purely a memory knob: every query
// answer, recommendation and maintenance result is bit-identical at every
// DcTopK setting, enforced by the package-level sparse-vs-dense
// equivalence property suite across sequential/parallel execution and
// one-shard/sharded layouts. Stats().IndexBytes reflects the sparse
// layout, so the memory saving is observable per dataset and per shard.
//
// # Serving
//
// cmd/onex-server exposes bases over HTTP through internal/hub, a
// concurrent multi-dataset catalog: datasets register at runtime
// (POST /v1/datasets), build asynchronously on a bounded worker pool with
// per-dataset lifecycle state (pending → building → ready/failed) and
// build progress (Options.Progress / Options.Cancel), persist to disk as
// snapshots (Base.SaveFile / onex.LoadFile) for instant reload, extend
// incrementally while queries keep running, and answer repeated queries
// from a bounded LRU result cache keyed on the dataset generation and
// shard layout. Per-dataset drift/rebuild counters and per-shard sizes
// surface on /v1/stats and /v1/datasets/{name}/stats, so the amortized
// rebuild policy is tunable from data. See
// cmd/onex-server/README.md for the full v1 API with curl examples, and
//
//	go run ./examples/hub
//
// for the hub driven directly from Go. The serve-smoke CI job (also
// `make serve-smoke`) boots the server end to end.
//
// # Distributed serving
//
// Every shard interaction inside the engine goes through
// one seam, query.ShardTransport (Info / ScanBest / ScanFixed / VerifyK /
// EvalMembers / Range / Stats / Close). The in-process engine is the
// `local` transport (query.LocalShard); internal/shardrpc supplies the
// `remote` one: `onex-server -role worker` serves per-shard REST
// endpoints, and the coordinator — given Options.ShardWorkers (or the
// server's -shard-workers flag) — computes the global grouping once,
// ships each shard's series and owned groups to a worker keyed by
// (dataset, generation, shard), and fans queries out in phases: a k-NN
// costs each shard one scan and one member-verification call per searched
// length, a range query one call; only the best-match group walk still
// crosses in 32-member rounds (EvalMembers). Because the coordinator
// runs one decision procedure over transport answers, and
// ±Inf-capable floats travel as math.Float64bits, a worker-served base
// answers the full query mix bit-identically to the in-process engine —
// including through mid-query worker restarts: shipping is idempotent on
// the (dataset, generation, shard) key, so a client that sees
// 404/unknown_generation re-ships the spec and retries, with per-call
// timeouts and bounded backoff throughout (a worker down past the retry
// budget surfaces as shardrpc.ErrUnavailable → HTTP 503). The remote
// equivalence property suite in internal/shard locks all of this in
// across parallelism and shard-count layouts under -race, worker
// kill/restart included. See docs/api.md for the worker wire protocol
// and cmd/onex-server/README.md for running a worker fleet;
// `make dist-smoke` boots two workers plus a coordinator and
// cross-checks answers against a one-shard server end to end.
package onex

// Paper-to-code glossary. The implementation follows the paper's notation
// (Neamtu et al., PVLDB 10(3), 2016) wherever Go allows; this table maps the
// paper's symbols to the identifiers that realize them.
//
//	Paper                         Code
//	-----                         ----
//	X = (x1…xn), dataset D        ts.Series, ts.Dataset
//	(Xp)^i_j  (Def. 1)            ts.Subseq{Series p, Start j, Length i};
//	                              grouping.Member inside groups
//	ED, ED̄ (Defs. 2, 5)           dist.ED, dist.NormalizedED
//	DTW, DTW̄ (Defs. 3, 6)         dist.DTW, dist.NormalizedDTW (÷2·max(n,m))
//	warping path P, w(P)          dist.DTWPath, dist.PathPoint
//	similarity threshold ST       Options.ST / Base.ST()
//	similarity group G^i_k        grouping.Group (Def. 8: same length,
//	                              ED̄ to rep ≤ ST/2, nearest rep)
//	representative R^i_k (Def. 7) grouping.Group.Rep (point-wise average)
//	R-Space (Def. 9)              rspace.Base
//	Dc (Def. 10)                  rspace.LengthEntry.TopK (sparse top-k
//	                              rows; dense Dc is build-time scratch)
//	GTI (Sec. 4.3)                rspace.LengthEntry (group vector, TopK,
//	                              STHalf/STFinal; the sum-sorted array and
//	                              its median visit order are not kept — the
//	                              scan visits groups in id order)
//	LSI (Sec. 4.3)                grouping.Group.Members (ED-sorted) +
//	                              rspace.LengthEntry.Envelopes
//	SP-Space, SThalf/STfinal      rspace SThalf/STFinal per length;
//	(Sec. 4.2, Fig. 1)            Base.RecommendThreshold, Base.DegreeOf
//	S/M/L similarity degrees      onex.Strict / Medium / Loose
//	Algorithm 1                   grouping.Build (+ grouping.Extend /
//	                              grouping.AppendPoints for incremental
//	                              maintenance)
//	OUTPUT…FROM…WHERE…MATCH       onex.Request, answered by Base.Exec /
//	(the query-class template)    ExecBatch
//	Algorithm 2.A (Q1)            FamilyMatch: Base.BestMatch / BestKMatches
//	Algorithm 2.B (Q2)            FamilySeasonal: Base.Seasonal / SeasonalAll
//	Algorithm 2.C (vary ST′)      Base.WithThreshold
//	Lemma 1                       tested in grouping (pairwise ≤ ST)
//	Lemma 2 (ED↔DTW triangle)     the MatchAny early-stop rule and
//	                              RangeSearch wholesale admission
//	LB_Kim, LB_Keogh (Sec. 5.3)   dist.LBKim, dist.LBKeogh(+Ordered)
//	early abandoning (Sec. 5.3)   dist.Workspace.DTWEarlyAbandon,
//	                              dist.SquaredEDEarlyAbandon
//	Trillion [22]                 baseline.Trillion
//	PAA / PDTW [19]               baseline.PAA
//	Standard DTW                  baseline.BruteForce
