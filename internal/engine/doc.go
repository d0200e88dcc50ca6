// Package engine is the staged, parallel release engine behind the paper's
// three-step mechanism. It decomposes what used to be a monolithic run into
// five explicit pipeline stages, each behind a small interface so they are
// individually constructible, testable and replaceable:
//
//	Plan     — Step 1: build (or fetch from the PlanCache) the grouped
//	           strategy matrix description for the workload.
//	Allocate — Step 2: closed-form uniform or optimal non-uniform per-group
//	           noise budgets, plus the Proposition 3.1 privacy re-check.
//	Measure  — noisy strategy answers z = Sx + ν, computed and perturbed
//	           block by block over a bounded worker pool.
//	Recover  — initial per-marginal recovery from the (sharded) answers,
//	           also fanned out.
//	Consist  — Step 3: the optional consistency projection, its
//	           per-marginal transforms, per-coefficient weighted average
//	           and reconstruction sharded across the same pool.
//
// Engine.Run wires the stages together, and Engine.RunVector is the entry
// for callers holding a sharded contingency vector — the one every
// repro.Releaser release takes. Preview forecasts a configuration's error
// from Steps 1–2 alone, without data or noise.
//
// # The blocked-vector pipeline
//
// Huge domains (d ≥ 20) make the two full-length vectors the pipeline
// moves — the 2^d contingency vector x and the strategy-answer vector z —
// the scaling bottleneck, so both travel as vector.Blocked: contiguous
// cell-range blocks of one uniform length instead of one giant slice.
//
//   - Input. x arrives blocked from the dataset store (the ingest
//     accumulator's shards are handed over as-is — a dataset release never
//     re-densifies) or as a zero-copy single-block view of a caller's
//     dense slice.
//   - Measure. When the plan supports per-block answer slicing
//     (strategy.Plan.AnswerBlock), the answer vector is built block by
//     block: vector.Schedule assigns blocks to workers deterministically,
//     each worker materialises one block at a time, and no contiguous
//     full-length slice ever exists. Plans whose answers cannot be sliced
//     (Fourier's transform is global) parallelise inside TrueAnswers
//     instead — the blocked Walsh–Hadamard transform runs over a blocked
//     scratch copy. Options.Shards bounds the partition (0 auto-shards
//     above AutoShardRows; 1 forces the monolithic path).
//   - Perturb. Noise is applied over the fixed noiseBlock row grid,
//     walking storage blocks through Segments, so the blocking never
//     touches a substream boundary.
//   - Recover. Per-marginal recovery reads the shards it needs through the
//     blocked accessors (random access is one division; ranges gather
//     without copying when they sit inside one block).
//   - Consist. The weighted-L2 projection — historically the last serial
//     stage — fans its per-marginal small WHTs, the sharded
//     per-coefficient weighted average and the per-marginal reconstruction
//     over the worker pool (consistency.L2Answers). It works on a dense
//     coefficient slice through the workload's Fourier index and builds no
//     coefficient map: a Release carries answers only.
//
// # Worker dispatch
//
// Perturb and Recover build their work lists up front (the noise blocks,
// the marginals) and hand them out by index: each pool goroutine claims
// the next index with one atomic add until the list is exhausted or the
// context is done. No item passes through a channel, so a Fourier release
// — one noise group, and hence one tiny block, per coefficient — pays no
// scheduler hand-off per block. Which goroutine takes an item never
// matters: a block's draws depend only on (seed, group, block), and a
// marginal's recovery writes only its own slot.
//
// Tiny work is not fanned out at all. A noise pass over fewer than
// perturbParallelMin (2·noiseBlock) rows walks the same block grid on the
// calling goroutine, and a workload of fewer than recoverParallelMin
// (2^14) cells recovers through the serial Plan.Recover. A Fourier release
// at the paper's shapes is hundreds of one-row noise groups and tiny
// marginals, for which the pool's start-up and its shared claim counter
// cost more than the arithmetic. The cutoffs are constants, like the WHT's
// whtParallelMin, and only pick between two bit-identical paths.
//
// # Determinism contract
//
// A release is a pure function of (workload, data cells, Config). The
// worker count, the shard count, the blocking of x, the plan cache, and
// goroutine scheduling never change a single bit of the output:
//
//   - Noise substreams. The noise added to row r of strategy group g is
//     drawn from a PRNG substream derived by hashing (master seed, g,
//     ⌊r/noiseBlock⌋) — see noise.NewSubstream. No draw depends on any
//     other group's stream, so groups (and fixed-size blocks within a
//     group) can be perturbed concurrently in any order, and the same seed
//     yields a bit-identical release at any worker or shard count.
//   - Per-block answers. strategy.Plan.AnswerBlock must tile TrueAnswers
//     bit-identically. Every built-in strategy honours it by accumulating
//     each output cell over ascending domain indices — an order no
//     blocking can change — and the blocked WHT performs the exact serial
//     butterfly sequence. The engine test suite pins the full matrix:
//     strategy × consistency mode × shards {1, 3, 8} × workers ×
//     input blockings.
//   - Per-marginal recovery. strategy.Plan.RecoverMarginal must be bitwise
//     equivalent to the corresponding block of Plan.Recover (same
//     floating-point additions in the same per-cell order). The engine
//     therefore recovers marginals concurrently whenever a plan provides
//     RecoverMarginal, falling back to the serial Recover otherwise.
//   - Consistency merges. Each Fourier coefficient accumulates its
//     contributions in ascending marginal order whether one worker owns
//     the whole support or many own a shard each, so the projection is
//     bit-identical at any worker count.
//   - Plan purity. Cached plans are shared read-only across goroutines and
//     runs; every built-in strategy's plan closures are pure functions of
//     their captured inputs.
//
// # Cache semantics
//
// PlanCache memoises Step-1 plans under a key covering everything a plan
// can depend on: strategy identity (Name, or PlanCacheKey for configurable
// strategies), domain dimension, the exact workload mask sequence and query
// weights. Privacy parameters and the budgeting mode stay out of the key —
// planning never sees them — so one cached plan serves a whole ε sweep.
// Step 1 is the only stage whose cost does not depend on the data — and for
// the cluster strategy it dominates the entire run — so repeated releases
// over the same schema (the serving scenario: fresh data or fresh seed,
// same cube) skip planning entirely.
// The cache is a bounded LRU and safe for concurrent use; hits return the
// identical plan the first run used, so caching never changes output.
//
// # Answer memo
//
// The exact strategy answers S·x depend only on the data and the plan,
// never on ε, the Step-2 budgets or the seed. When x is sealed
// (vector.Blocked.Seal — the dataset store seals every version it
// installs), the default Measurer memoizes them on x under the plan's Key,
// which Planner sets to the plan-cache key, so a later fresh-seed or
// other-ε release of the same plan over x skips the transform and pays
// only for noise, recovery and consistency. The memo copies the answers in
// before noise is added and copies them out into a fresh z, so the release
// is bit-identical to an unmemoized run. Its lifetime is one dataset
// version: it hangs off the sealed vector, and an append or replace
// installs a new vector with an empty memo. It holds at most Len()/4
// floats, evicting least-recently-used entries, and never stores answers
// with as many rows as x has cells (Identity). It lives in memory only:
// nothing persists, snapshots or logs it. The engine never writes its
// input vector, which is what keeps a memoized answer valid for the
// version's lifetime. Unsealed inputs and caller-supplied Measure stages
// never consult it; the measure span reports answers=memo or
// answers=computed.
package engine
