// The execution half of the plan/execute split.
//
// An `ExecutionContext` is the long-lived object a service (or an iterative
// graph algorithm) keeps across many masked multiplies. It owns
//
//  * a keyed plan cache: plans (core/plan.hpp) indexed by the operand
//    pattern fingerprints × mask kind × mask semantics, FIFO-evicted, so a
//    repeated call on unchanged patterns skips flops counting, one-phase
//    bounds, the two-phase symbolic pass, B's transpose, and partitioning;
//  * per-thread kernel scratch, type-erased and reused across calls: the
//    MSA kernel's O(ncols) dense arrays, the hash kernel's warmed-up slot
//    table, the heap and MCA arrays — allocated once per thread instead of
//    once per call;
//  * a small cache of multi-mask (mask, row) work-item partitions, so a
//    service replaying the same batch skips the global partition rebuild
//    too (a single mask's partition lives in its plan).
//
// `multiply` is the plan-then-execute counterpart of `masked_multiply`; it
// produces bit-identical results (the conformance suite pins both to the
// same baseline). `multiply_batch` answers N masks against one A·B in a
// single call — bit-identical to N sequential `multiply` calls, but A and B
// are fingerprinted once, the per-row flops vector and B's CSC transpose
// are shared across all N plans, and one global flops-binned partition over
// (mask, row) work items load-balances the whole batch. Both run through
// one execution core, one kernel switch and the same two phase drivers
// (core/masked_spgemm.hpp): a single multiply is a batch of one. An
// ExecutionContext must not be shared by concurrent callers — it is
// designed for one caller issuing a stream of multiplies, each of which
// parallelizes internally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <numeric>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/invariants.hpp"
#include "core/masked_spgemm.hpp"
#include "core/plan.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace msp {

class ExecutionContext {
 public:
  /// `max_plans` bounds the plan cache (FIFO eviction); plans can hold
  /// O(nrows + nnz(B)) data each, so unbounded growth would be a leak in a
  /// long-running service.
  explicit ExecutionContext(std::size_t max_plans = 64)
      : max_plans_(std::max<std::size_t>(1, max_plans)) {}

  /// Cumulative cache behaviour — the observable side of amortization.
  struct CacheStats {
    std::size_t plan_hits = 0;
    std::size_t plan_misses = 0;
    std::size_t plan_evictions = 0;
    /// Cache hits whose plan failed the shape/flops cross-check (64-bit
    /// fingerprint collision, or operands re-bound to a different shape)
    /// and were therefore demoted to misses.
    std::size_t plan_mismatches = 0;
    std::size_t batch_calls = 0;  ///< multiply_batch invocations
    std::size_t batch_masks = 0;  ///< total masks across those batches
    std::size_t tiled_calls = 0;   ///< TiledEngine::multiply invocations
    std::size_t tiled_shards = 0;  ///< shard multiplies across those calls
    std::size_t shard_spills = 0;  ///< ShardStore evictions during them
    std::size_t shard_reloads = 0; ///< ShardStore reloads during them
    /// Prefetch effectiveness across tiled calls: pins served by a
    /// completed background reload vs prefetched payloads evicted unused
    /// (see ShardStore::Stats; both 0 with prefetch disabled).
    std::size_t prefetch_hits = 0;
    std::size_t prefetch_wasted = 0;
    /// O(nnz) pattern hashes actually performed. Calls that provide operand
    /// hints (Engine + BoundMatrix) skip these; the delta between calls and
    /// hashes is the observable fingerprint amortization of bound handles.
    std::size_t fingerprints_computed = 0;
    /// Plan-cache hits that caught up with a structure_changed update
    /// stream by recomputing only the dirty row blocks (SpgemmPlan::sync)
    /// instead of being evicted and rebuilt.
    std::size_t plan_partial_refreshes = 0;
    /// Total rows recomputed across those partial refreshes. Compared to
    /// nrows × hits this shows how much planning the per-block dirty
    /// tracking skipped for untouched blocks.
    std::size_t plan_rows_refreshed = 0;
    /// Queries served by the Engine's incremental result splice: only the
    /// rows dirty since the cached previous result were recomputed,
    /// one-phase on the full bound operands with no plan
    /// (ExecutionContext::splice_rows), and assembled with the cached
    /// clean rows in one parallel pass (bit-identical by row locality).
    std::size_t result_splices = 0;
    /// Rows recomputed across those splices; everything else was reused.
    std::size_t result_rows_recomputed = 0;
    double plan_seconds = 0.0;  ///< total planning/setup time across calls
  };

  [[nodiscard]] const CacheStats& cache_stats() const { return stats_; }
  [[nodiscard]] std::size_t plan_count() const { return plans_.size(); }

  /// Drop every cached plan, all per-thread scratch, the batch partition
  /// cache, and the cumulative counters. A context reset between bench
  /// configurations must not leak hit/miss/plan_seconds across them.
  void clear() {
    plans_.clear();
    order_.clear();
    thread_scratch_.clear();
    batch_parts_.clear();
    stats_ = CacheStats{};
  }

  /// Reset the cumulative counters only, keeping plans and scratch warm —
  /// for callers that want fresh statistics over an already-warm cache.
  void reset_stats() { stats_ = CacheStats{}; }

  /// Fold one incremental result splice into the stats (called by the
  /// Engine, which owns the result cache the splice reads from).
  void record_splice(std::size_t rows_recomputed) {
    ++stats_.result_splices;
    stats_.result_rows_recomputed += rows_recomputed;
  }

  /// Fold one sharded/tiled multiply's shard-level accounting into the
  /// cumulative stats (called by TiledEngine, which observes its stores'
  /// spill/reload deltas around the shard loop).
  void record_tiled(std::size_t shards, std::size_t spills,
                    std::size_t reloads, std::size_t prefetch_hits = 0,
                    std::size_t prefetch_wasted = 0) {
    ++stats_.tiled_calls;
    stats_.tiled_shards += shards;
    stats_.shard_spills += spills;
    stats_.shard_reloads += reloads;
    stats_.prefetch_hits += prefetch_hits;
    stats_.prefetch_wasted += prefetch_wasted;
  }

  /// Test seam: post-transform applied to every pattern fingerprint before
  /// it enters a plan key. Forcing a constant makes every key collide,
  /// which is the only practical way to exercise the hit-path shape
  /// cross-check (real 64-bit collisions cannot be constructed on demand).
  using FingerprintTransform = std::uint64_t (*)(std::uint64_t);
  void set_fingerprint_transform_for_testing(FingerprintTransform fn) {
    fp_transform_ = fn;
  }

  /// Fetch (or build) the plan a multiply with these operands and
  /// configuration executes (unhinted keys). The returned reference stays
  /// valid until `max_plans` later misses evict it or clear() is called.
  template <class IT, class VT, class MT>
  SpgemmPlan<IT, VT, MT>& plan_for(const CsrMatrix<IT, VT>& a,
                                   const CsrMatrix<IT, VT>& b,
                                   const CsrMatrix<IT, MT>& m, MaskKind kind,
                                   MaskSemantics semantics) {
    const std::uint64_t fa = fingerprint(a, false);
    const std::uint64_t fb = &b == &a ? fa : fingerprint(b, false);
    const std::uint64_t fm = mask_fingerprint(
        a, b, m, fa, fb, semantics == MaskSemantics::kValued);
    return *acquire_plan<IT, VT, MT>(
        plan_key<IT, VT, MT>(fa, fb, fm, kind, semantics), a, b, m, kind,
        semantics, nullptr, nullptr);
  }

  /// Per-thread scratch of any default-constructible type, created on
  /// first use and kept for the context's lifetime. Safe to call from
  /// inside a parallel region: each thread only touches its own slot
  /// (the slot vector is pre-sized serially by multiply()).
  template <class T>
  T& scratch(int tid) {
    MSP_ASSERT(tid >= 0 &&
               static_cast<std::size_t>(tid) < thread_scratch_.size());
    auto& map = thread_scratch_[static_cast<std::size_t>(tid)];
    auto it = map.find(std::type_index(typeid(T)));
    if (it == map.end()) {
      it = map.emplace(std::type_index(typeid(T)), std::make_shared<T>())
               .first;
    }
    return *static_cast<T*>(it->second.get());
  }

  /// Size the per-thread scratch table (serial; called before parallel
  /// regions hand out scratch references).
  void prepare_threads(int n) {
    if (static_cast<std::size_t>(n) > thread_scratch_.size()) {
      thread_scratch_.resize(static_cast<std::size_t>(n));
    }
  }

  /// Plan-then-execute Masked SpGEMM: C = M ⊙ (A·B) (or ¬M ⊙ (A·B)).
  /// Bit-identical to masked_multiply with the same options; repeated
  /// calls on unchanged operand patterns reuse the cached plan (values
  /// may differ — they are re-read from the operands every call).
  /// `hints` lets bound-operand callers (core/engine.hpp) supply cached
  /// fingerprints / flops / transpose state / dirty logs; results are
  /// bit-identical with or without hints. Runs as a batch of one mask,
  /// which is not counted as a batch call.
  template <Semiring SR, class IT, class VT, class MT>
  CsrMatrix<IT, VT> multiply(const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b,
                             const CsrMatrix<IT, MT>& m,
                             const MaskedSpgemmOptions& opt = {},
                             const SpgemmOperandHints<IT, VT>* hints =
                                 nullptr) {
    return std::move(execute<SR, IT, VT, MT>(a, b, {&m}, opt, hints).front());
  }

  /// Batched multi-mask Masked SpGEMM: Cq = Mq ⊙ (A·B) (or ¬Mq ⊙ (A·B))
  /// for every mask of the batch, in one call. Results are bit-identical
  /// to N sequential multiply() calls with the same options, but
  ///
  ///  * A and B are fingerprinted once (and each distinct mask object
  ///    once), not once per mask;
  ///  * plans missing from the cache are constructed from one shared
  ///    per-row flops vector (`hints->flops` when the caller already
  ///    counted it) and, for the Inner algorithm, one shared CSC
  ///    transpose of B;
  ///  * execution runs over one global flops-binned partition of
  ///    (mask, row) work items, so a batch of skewed masks load-balances
  ///    across threads better than N back-to-back calls;
  ///  * per-thread kernel scratch is reused across the whole batch with no
  ///    intermediate teardown.
  ///
  /// Masks may alias each other (the same object may appear several
  /// times) and may be empty. `opt.stats`, when set, receives batch
  /// aggregates (plan_cache_hit = every mask hit; summed nnz and timings).
  template <Semiring SR, class IT, class VT, class MT>
  std::vector<CsrMatrix<IT, VT>> multiply_batch(
      const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
      const std::vector<const CsrMatrix<IT, MT>*>& masks,
      const MaskedSpgemmOptions& opt = {},
      const SpgemmOperandHints<IT, VT>* hints = nullptr) {
    if (masks.empty()) return {};
    auto outs = execute<SR, IT, VT, MT>(a, b, masks, opt, hints);
    ++stats_.batch_calls;
    stats_.batch_masks += masks.size();
    return outs;
  }

  /// Convenience overload taking the masks by value-container.
  template <Semiring SR, class IT, class VT, class MT>
  std::vector<CsrMatrix<IT, VT>> multiply_batch(
      const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
      const std::vector<CsrMatrix<IT, MT>>& masks,
      const MaskedSpgemmOptions& opt = {}) {
    std::vector<const CsrMatrix<IT, MT>*> ptrs;
    ptrs.reserve(masks.size());
    for (const auto& m : masks) ptrs.push_back(&m);
    return multiply_batch<SR>(a, b, ptrs, opt);
  }

  /// Row-restricted recompute behind the Engine's incremental result
  /// splice. `prev` is this configuration's result on operands that differ
  /// from (a, b, m) only in A's rows `runs` (sorted, disjoint, in range).
  /// Those rows are recomputed one-phase on the full operands through the
  /// scheme's own kernel, with this context's per-thread scratch, into
  /// bounded temporaries: the mask row bounds each output row, so no
  /// symbolic pass is needed, and since both drivers write a row with the
  /// same numeric_row call the phase never changes the bits. One parallel
  /// pass then assembles the result: clean rows from `prev`, dirty rows
  /// from the recomputed block. No plan is looked up or built and nothing
  /// is fingerprinted. `hints.flops` must hold the current per-row flops
  /// of A·B; an Inner run reads B's transpose from `hints.b_csc` under
  /// `hints.b_values_version`. `opt.stats`, when set, is overwritten with
  /// this call's figures (plan_rows_refreshed = the rows recomputed).
  template <Semiring SR, class IT, class VT, class MT>
  CsrMatrix<IT, VT> splice_rows(const CsrMatrix<IT, VT>& a,
                                const CsrMatrix<IT, VT>& b,
                                const CsrMatrix<IT, MT>& m,
                                const MaskedSpgemmOptions& opt,
                                const SpgemmOperandHints<IT, VT>& hints,
                                const std::vector<std::pair<IT, IT>>& runs,
                                const CsrMatrix<IT, VT>& prev) {
    const bool complemented = opt.mask_kind == MaskKind::kComplement;
    if (complemented && opt.algorithm == MaskedAlgorithm::kMca) {
      throw invalid_argument_error("MCA does not support complemented masks");
    }
    detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, m);
    if (hints.flops == nullptr ||
        hints.flops->size() != static_cast<std::size_t>(a.nrows) ||
        (opt.algorithm == MaskedAlgorithm::kInner && hints.b_csc == nullptr)) {
      throw invalid_argument_error(
          "ExecutionContext::splice_rows: flops (and, for Inner, B's "
          "transpose cache) must be supplied");
    }
    Timer plan_timer;
    const std::vector<std::int64_t>& flops = *hints.flops;
    // The dirty rows in ascending order: local row k stands for rows[k].
    std::vector<IT> rows;
    for (const auto& [lo, hi] : runs) {
      for (IT i = lo; i < hi; ++i) rows.push_back(i);
    }
    const auto nd = static_cast<IT>(rows.size());
    // Valued semantics: drop explicit zeros from the dirty mask rows only
    // (the kernels never read any other row).
    const bool valued = opt.mask_semantics == MaskSemantics::kValued;
    const CsrMatrix<IT, MT> held =
        valued ? drop_explicit_zeros_in_runs(m, runs) : CsrMatrix<IT, MT>{};
    const CsrMatrix<IT, MT>& mm = valued ? held : m;
    // The plan's one-phase bounds (SpgemmPlan::ensure_bounds) and partition
    // rule (build_mask_partition), over the dirty rows only.
    std::vector<std::int64_t> dirty_flops(rows.size());
    std::vector<std::size_t> ub(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      dirty_flops[k] = flops[static_cast<std::size_t>(rows[k])];
      ub[k] = row_output_bound(opt.mask_kind,
                               static_cast<std::size_t>(mm.row_nnz(rows[k])),
                               static_cast<std::size_t>(b.ncols),
                               dirty_flops[k]);
    }
    const BatchRowPartition<IT> partition = build_batch_partition<IT>(
        dirty_flops, 1,
        [&](std::int32_t, IT k) {
          return complemented ||
                 mm.row_nnz(rows[static_cast<std::size_t>(k)]) > 0;
        },
        max_threads());
    const CscMatrix<IT, VT>* b_csc =
        opt.algorithm == MaskedAlgorithm::kInner
            ? &hints.b_csc->ensure(b, hints.b_values_version)
            : nullptr;
    prepare_threads(max_threads());
    const double plan_seconds = plan_timer.seconds();
    stats_.plan_seconds += plan_seconds;

    MaskedSpgemmStats run_stats;
    const CsrMatrix<IT, VT> block = with_kernel<SR, IT, VT, MT>(
        opt, a, b, [&](int) -> const CsrMatrix<IT, MT>& { return mm; },
        [&](int) -> const CscMatrix<IT, VT>& { return *b_csc; },
        [&](int) { return flops.data(); },
        [&](auto&& factory) {
          auto mapped = [&](int tid, int q) {
            return detail::RowMappedKernel<decltype(factory(tid, q)), IT>{
                factory(tid, q), rows.data()};
          };
          return std::move(detail::run_batch_one_phase<IT, VT>(
                               nd, b.ncols, {&ub}, mapped, partition,
                               {nullptr}, &run_stats)
                               .front());
        });
    Timer assemble_timer;
    CsrMatrix<IT, VT> out = splice_row_runs(prev, runs, block);
    if (opt.stats != nullptr) {
      MaskedSpgemmStats& st = *opt.stats;
      st = run_stats;
      st.assemble_seconds += assemble_timer.seconds();
      st.output_nnz = out.nnz();
      st.plan_seconds = plan_seconds;
      st.plan_cache_hit = true;
      st.symbolic_skipped = true;
      st.total_flops =
          std::accumulate(flops.begin(), flops.end(), std::int64_t{0});
      st.plan_rows_refreshed = rows.size();
    }
    return out;
  }

 private:
  /// The one execution path behind multiply and multiply_batch: N ≥ 1
  /// masks against one A·B, planned, partitioned and run through the
  /// phase drivers. The mask fields of `hints` are read only when N = 1.
  template <Semiring SR, class IT, class VT, class MT>
  std::vector<CsrMatrix<IT, VT>> execute(
      const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
      const std::vector<const CsrMatrix<IT, MT>*>& masks,
      const MaskedSpgemmOptions& opt,
      const SpgemmOperandHints<IT, VT>* hints) {
    using Plan = SpgemmPlan<IT, VT, MT>;
    const std::size_t n = masks.size();
    const bool complemented = opt.mask_kind == MaskKind::kComplement;
    if (complemented && opt.algorithm == MaskedAlgorithm::kMca) {
      throw invalid_argument_error("MCA does not support complemented masks");
    }
    for (const auto* m : masks) {
      if (m == nullptr) {
        throw invalid_argument_error("multiply_batch: null mask");
      }
      detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, *m);
    }

    Timer plan_timer;
    const SpgemmOperandHints<IT, VT> unhinted;
    const SpgemmOperandHints<IT, VT>& h = hints != nullptr ? *hints : unhinted;
    const bool single = n == 1;
    const bool valued = opt.mask_semantics == MaskSemantics::kValued;
#if MSP_CHECKED_BUILD
    // Hint-freshness: a hinted fingerprint without a dirty log attached
    // claims "this is still the hash of the operand's pattern" — recount
    // and verify. (With a dirty log the handle is in identity-fingerprint
    // mode and the hint is deliberately not a pattern hash.) Raw values
    // are compared, before the test-only key transform.
    {
      static constexpr const char* kSite = "ExecutionContext::multiply";
      if (h.fa.has_value() && h.a_dirty == nullptr) {
        MSP_CHECK_HINT_FP(*h.fa, pattern_fingerprint(a, false), "A", kSite);
      }
      if (h.fb.has_value() && h.b_dirty == nullptr) {
        MSP_CHECK_HINT_FP(*h.fb, pattern_fingerprint(b, false), "B", kSite);
      }
      if (single && h.fm.has_value() && h.m_dirty == nullptr) {
        MSP_CHECK_HINT_FP(*h.fm, pattern_fingerprint(*masks[0], valued), "M",
                          kSite);
      }
    }
#endif
    // Aliased operands (ktruss: A = B = M = C; tricount: L thrice) are
    // fingerprinted once; hinted fingerprints are not recomputed at all
    // (they go through the same test-only transform, so hinted and
    // unhinted calls agree on every key).
    const std::uint64_t fa =
        h.fa.has_value() ? transform(*h.fa) : fingerprint(a, false);
    std::uint64_t fb;
    if (h.fb.has_value()) {
      fb = transform(*h.fb);
    } else {
      fb = &b == &a ? fa : fingerprint(b, false);
    }
    const StructureDirtyLog<IT>* m_dirty = single ? h.m_dirty : nullptr;

    // Acquire (or build) every plan, holding shared ownership so that FIFO
    // eviction triggered by later misses in this very call cannot free a
    // plan it still executes. Missing plans are constructed from one flops
    // vector (the hinted one, else the first plan's): A·B is counted at
    // most once. Each plan is then caught up with any structure_changed
    // mutations before a single artifact is consumed: a hit on an evolving
    // operand refreshes exactly the dirty row blocks (and a plan that
    // cannot tell how stale it is refreshes everything) instead of being
    // evicted.
    std::vector<std::shared_ptr<Plan>> plans(n);
    std::vector<PlanKey> keys;
    keys.reserve(n);
    std::shared_ptr<const std::vector<std::int64_t>> flops = h.flops;
    std::unordered_map<const void*, std::uint64_t> fm_memo;
    bool all_hits = true;
    std::size_t rows_refreshed = 0;
    for (std::size_t q = 0; q < n; ++q) {
      const CsrMatrix<IT, MT>& m = *masks[q];
      // Mask fingerprints, memoized by address so aliased masks hash once.
      std::uint64_t fm;
      if (single && h.fm.has_value()) {
        fm = transform(*h.fm);
      } else {
        const auto [it, fresh] = fm_memo.try_emplace(&m, 0);
        if (fresh) it->second = mask_fingerprint(a, b, m, fa, fb, valued);
        fm = it->second;
      }
      keys.push_back(plan_key<IT, VT, MT>(fa, fb, fm, opt.mask_kind,
                                          opt.mask_semantics));
      bool hit = false;
      plans[q] = acquire_plan<IT, VT, MT>(keys.back(), a, b, m,
                                          opt.mask_kind, opt.mask_semantics,
                                          &hit, &flops);
      const std::size_t refreshed =
          plans[q]->sync(a, b, m, !hit, h.a_dirty, h.b_dirty, m_dirty);
      if (refreshed > 0) {
        ++stats_.plan_partial_refreshes;
        stats_.plan_rows_refreshed += refreshed;
        rows_refreshed += refreshed;
        flops = plans[q]->flops_ptr();  // the recount of the current A·B
        drop_batch_partitions(keys.back());
      }
      // The plan is now claimed to be consistent with these operands —
      // the boundary where every artifact accessor below starts trusting it.
      MSP_CHECK_PLAN(*plans[q], a, b, m, "ExecutionContext::multiply");
      all_hits = all_hits && hit;
    }

    std::vector<const CsrMatrix<IT, MT>*> eff(n);
    for (std::size_t q = 0; q < n; ++q) {
      eff[q] = &plans[q]->effective_mask(*masks[q]);
    }

    // One flops-binned partition over the (mask, row) items. A single
    // mask's lives in its plan, which sync() keeps current (identity
    // fingerprints from a bound handle do not change on a structure
    // update, so no key could); a batch's is cached per exact key sequence
    // so a replayed batch skips the rebuild. Under a regular mask, rows
    // whose effective mask row is empty are provably empty in the output
    // and excluded outright.
    const int n_lists = max_threads();
    const BatchRowPartition<IT>& partition =
        single ? plans[0]->ensure_partition(*masks[0], n_lists)
               : batch_partition_for<IT>(
                     keys, n_lists, *flops, [&](std::int32_t q, IT i) {
                       return complemented ||
                              eff[static_cast<std::size_t>(q)]->row_nnz(i) >
                                  0;
                     });

    // Warm-plan phase upgrade (tuned kAuto): with the output structure
    // already exported into every plan, two-phase is pure exact numeric.
    // The phase is global to the call, so a single cold mask keeps the
    // requested phase rather than paying an unamortized symbolic pass.
    bool all_structured = opt.exact_phase_when_cached;
    for (std::size_t q = 0; all_structured && q < n; ++q) {
      all_structured = plans[q]->has_structure();
    }
    const MaskedPhase phase =
        all_structured ? MaskedPhase::kTwoPhase : opt.phase;
    std::vector<const std::vector<std::size_t>*> ub(n, nullptr);
    if (phase == MaskedPhase::kOnePhase) {
      for (std::size_t q = 0; q < n; ++q) {
        ub[q] = &plans[q]->ensure_bounds(*masks[q]);
      }
    }
    std::vector<const CscMatrix<IT, VT>*> b_cscs(n, nullptr);
    if (opt.algorithm == MaskedAlgorithm::kInner) {
      // One transpose for the whole call: the hinted (handle-owned) cache,
      // else any plan's, injected into plans without one; then each
      // *distinct* cache is built/refreshed exactly once (a plan that
      // already owns one keeps it — it is just as valid for this B).
      std::shared_ptr<CscTransposeCache<IT, VT>> shared = h.b_csc;
      for (std::size_t q = 0; q < n && shared == nullptr; ++q) {
        shared = plans[q]->csc_cache();
      }
      if (shared == nullptr) {
        shared = std::make_shared<CscTransposeCache<IT, VT>>();
      }
      std::vector<const void*> refreshed;
      for (std::size_t q = 0; q < n; ++q) {
        Plan& plan = *plans[q];
        plan.adopt_csc(shared);
        const void* cache = plan.csc_cache().get();
        if (std::find(refreshed.begin(), refreshed.end(), cache) ==
            refreshed.end()) {
          (void)plan.ensure_b_csc(b, h.b_values_version);
          refreshed.push_back(cache);
        }
        b_cscs[q] = &plan.csc_cache()->csc;
      }
    }
    prepare_threads(max_threads());
    const double plan_seconds = plan_timer.seconds();
    stats_.plan_seconds += plan_seconds;
    if (opt.stats != nullptr) {
      opt.stats->plan_seconds = plan_seconds;
      opt.stats->plan_cache_hit = all_hits;
      opt.stats->symbolic_skipped = false;
      opt.stats->total_flops = plans[0]->total_flops();
      opt.stats->plan_rows_refreshed = rows_refreshed;
    }

    // First execution of either phase exports the output row structure
    // into the plan so later two-phase runs skip their symbolic pass.
    std::vector<const std::vector<IT>*> cached(n, nullptr);
    std::vector<std::vector<IT>*> sinks(n, nullptr);
    for (std::size_t q = 0; q < n; ++q) {
      if (plans[q]->has_structure()) cached[q] = &plans[q]->structure_rowptr();
      sinks[q] = plans[q]->structure_sink();
    }

    const IT nrows = masks[0]->nrows;
    return with_kernel<SR, IT, VT, MT>(
        opt, a, b,
        [&](int q) -> const CsrMatrix<IT, MT>& {
          return *eff[static_cast<std::size_t>(q)];
        },
        [&](int q) -> const CscMatrix<IT, VT>& {
          return *b_cscs[static_cast<std::size_t>(q)];
        },
        [&](int q) {
          return plans[static_cast<std::size_t>(q)]->flops().data();
        },
        [&](auto&& factory) {
          if (phase == MaskedPhase::kOnePhase) {
            return detail::run_batch_one_phase<IT, VT>(
                nrows, b.ncols, ub, factory, partition, sinks, opt.stats);
          }
          return detail::run_batch_two_phase<IT, VT>(
              nrows, b.ncols, factory, partition, cached, sinks, opt.stats);
        });
  }

  /// The one kernel switch behind execute and splice_rows: binds the
  /// kernel `opt.algorithm` names — with this context's per-thread scratch
  /// — into a factory `(tid, q) -> kernel` and returns `run(factory)`.
  /// `mask_of(q)` is mask q's effective mask, `csc_of(q)` B's transpose
  /// (Inner only), `flops_of(q)` the per-row flops the adaptive router
  /// reads.
  template <Semiring SR, class IT, class VT, class MT, class MaskOf,
            class CscOf, class FlopsOf, class Run>
  auto with_kernel(const MaskedSpgemmOptions& opt, const CsrMatrix<IT, VT>& a,
                   const CsrMatrix<IT, VT>& b, MaskOf&& mask_of,
                   CscOf&& csc_of, FlopsOf&& flops_of, Run&& run) {
    const bool complemented = opt.mask_kind == MaskKind::kComplement;
    switch (opt.algorithm) {
      case MaskedAlgorithm::kMsa: {
        using K = MsaKernel<SR, IT, VT, MT>;
        return run([&](int tid, int q) {
          return K(a, b, mask_of(q), complemented,
                   &scratch<typename K::Scratch>(tid));
        });
      }
      case MaskedAlgorithm::kHash: {
        using K = HashKernel<SR, IT, VT, MT>;
        return run([&](int tid, int q) {
          return K(a, b, mask_of(q), complemented,
                   &scratch<typename K::Scratch>(tid));
        });
      }
      case MaskedAlgorithm::kMca: {
        using K = McaKernel<SR, IT, VT, MT>;
        return run([&](int tid, int q) {
          return K(a, b, mask_of(q), complemented,
                   &scratch<typename K::Scratch>(tid));
        });
      }
      case MaskedAlgorithm::kHeap:
      case MaskedAlgorithm::kHeapDot: {
        using K = HeapKernel<SR, IT, VT, MT>;
        const long fallback =
            opt.algorithm == MaskedAlgorithm::kHeap ? 1 : kInspectAll;
        const long inspect =
            opt.heap_n_inspect >= 0 ? opt.heap_n_inspect : fallback;
        return run([&, inspect](int tid, int q) {
          return K(a, b, mask_of(q), complemented, inspect,
                   &scratch<typename K::Scratch>(tid));
        });
      }
      case MaskedAlgorithm::kInner: {
        using K = InnerKernel<SR, IT, VT, MT>;
        return run([&](int, int q) {
          return K(a, csc_of(q), mask_of(q), complemented);
        });
      }
      case MaskedAlgorithm::kAdaptive: {
        using K = AdaptiveKernel<SR, IT, VT, MT>;
        return run([&](int tid, int q) {
          return K(a, b, mask_of(q), complemented,
                   typename K::Policy{.table = opt.route_table}, flops_of(q),
                   &scratch<typename K::Scratch>(tid));
        });
      }
    }
    throw invalid_argument_error("ExecutionContext: unknown algorithm");
  }

  struct PlanKey {
    std::uint64_t fa;
    std::uint64_t fb;
    std::uint64_t fm;
    int kind;
    int semantics;
    std::type_index type;

    bool operator==(const PlanKey& o) const {
      return fa == o.fa && fb == o.fb && fm == o.fm && kind == o.kind &&
             semantics == o.semantics && type == o.type;
    }
  };

  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& k) const {
      std::uint64_t h = k.fa;
      h = detail::hash_mix(h, k.fb);
      h = detail::hash_mix(h, k.fm);
      h = detail::hash_mix(h, static_cast<std::uint64_t>(k.kind));
      h = detail::hash_mix(h, static_cast<std::uint64_t>(k.semantics));
      h = detail::hash_mix(h,
                           static_cast<std::uint64_t>(k.type.hash_code()));
      return static_cast<std::size_t>(h);
    }
  };

  template <class IT, class VT, class MT>
  static PlanKey plan_key(std::uint64_t fa, std::uint64_t fb,
                          std::uint64_t fm, MaskKind kind,
                          MaskSemantics semantics) {
    return PlanKey{fa,
                   fb,
                   fm,
                   static_cast<int>(kind),
                   static_cast<int>(semantics),
                   std::type_index(typeid(SpgemmPlan<IT, VT, MT>))};
  }

  /// The (test-only) fingerprint post-transform, applied to every raw
  /// fingerprint — computed here or supplied through hints — before it
  /// enters a plan key.
  [[nodiscard]] std::uint64_t transform(std::uint64_t h) const {
    return fp_transform_ != nullptr ? fp_transform_(h) : h;
  }

  /// Pattern fingerprint with the post-transform applied. Counted in
  /// CacheStats::fingerprints_computed — hinted calls never get here.
  template <class IT, class T>
  std::uint64_t fingerprint(const CsrMatrix<IT, T>& x,
                            bool include_value_zeros) {
    ++stats_.fingerprints_computed;
    return transform(pattern_fingerprint(x, include_value_zeros));
  }

  /// Mask fingerprint with the aliasing shortcut (a mask that *is* A or B
  /// under structural semantics reuses their fingerprint).
  template <class IT, class VT, class MT>
  std::uint64_t mask_fingerprint(const CsrMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b,
                                 const CsrMatrix<IT, MT>& m, std::uint64_t fa,
                                 std::uint64_t fb, bool valued) {
    if constexpr (std::is_same_v<VT, MT>) {
      if (!valued &&
          static_cast<const void*>(&m) == static_cast<const void*>(&a)) {
        return fa;
      }
      if (!valued &&
          static_cast<const void*>(&m) == static_cast<const void*>(&b)) {
        return fb;
      }
    }
    return fingerprint(m, valued);
  }

  /// Look up (or build) a plan by key, returning shared ownership. On a
  /// hit the plan's shape and flops length are cross-checked against the
  /// *current* operands: a 64-bit fingerprint is not proof of identity,
  /// and a collision (or a caller re-binding operands of a different
  /// shape) must not silently execute a mismatched plan — mismatches are
  /// demoted to misses and the stale entry is dropped. `shared_flops`,
  /// when non-null, threads one flops vector through a batch: it is
  /// filled from the first plan seen and handed to every plan built after.
  template <class IT, class VT, class MT>
  std::shared_ptr<SpgemmPlan<IT, VT, MT>> acquire_plan(
      const PlanKey& key, const CsrMatrix<IT, VT>& a,
      const CsrMatrix<IT, VT>& b, const CsrMatrix<IT, MT>& m, MaskKind kind,
      MaskSemantics semantics, bool* cache_hit,
      std::shared_ptr<const std::vector<std::int64_t>>* shared_flops) {
    using Plan = SpgemmPlan<IT, VT, MT>;
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      auto plan = std::static_pointer_cast<Plan>(it->second);
      if (plan->nrows() == m.nrows && plan->ncols() == m.ncols &&
          plan->flops().size() == static_cast<std::size_t>(a.nrows)) {
        ++stats_.plan_hits;
        if (cache_hit != nullptr) *cache_hit = true;
        if (shared_flops != nullptr && *shared_flops == nullptr) {
          *shared_flops = plan->flops_ptr();
        }
        return plan;
      }
      ++stats_.plan_mismatches;
      plans_.erase(it);
      const auto oit = std::find(order_.begin(), order_.end(), key);
      if (oit != order_.end()) order_.erase(oit);
      // Any cached batch partition involving this key was built for the
      // mismatched operands.
      drop_batch_partitions(key);
    }
    ++stats_.plan_misses;
    if (cache_hit != nullptr) *cache_hit = false;
    auto plan = std::make_shared<Plan>(
        a, b, m, kind, semantics,
        shared_flops != nullptr ? *shared_flops : nullptr);
    if (shared_flops != nullptr && *shared_flops == nullptr) {
      *shared_flops = plan->flops_ptr();
    }
    plans_.emplace(key, plan);
    order_.push_back(key);
    while (plans_.size() > max_plans_) {
      plans_.erase(order_.front());
      order_.pop_front();
      ++stats_.plan_evictions;
    }
    return plan;
  }

  /// Cached global batch partitions, matched by the *exact* plan-key
  /// sequence (linear scan over a handful of entries, so the map itself
  /// cannot mis-serve on a bucket collision). The keys are still 64-bit
  /// fingerprints, so — like the plan cache — a hit is additionally
  /// cross-checked against the current row count, and acquire_plan purges
  /// entries whose plan failed its mismatch check; the residual risk is
  /// the same equal-shape fingerprint collision the plan layer accepts.
  /// FIFO-bounded like the plan cache.
  struct BatchPartitionEntry {
    std::vector<PlanKey> keys;
    int n_lists;
    std::size_t nrows;  ///< flops.size() the partition was built over
    std::type_index type;
    std::shared_ptr<void> part;
  };
  static constexpr std::size_t kMaxBatchPartitions = 8;

  /// Drop every cached batch partition involving `key` — its plan no
  /// longer describes the operands the partition was built for, and a
  /// later batch over the same keys must not replay it.
  void drop_batch_partitions(const PlanKey& key) {
    batch_parts_.erase(
        std::remove_if(batch_parts_.begin(), batch_parts_.end(),
                       [&](const BatchPartitionEntry& e) {
                         return std::find(e.keys.begin(), e.keys.end(),
                                          key) != e.keys.end();
                       }),
        batch_parts_.end());
  }

  template <class IT, class Included>
  const BatchRowPartition<IT>& batch_partition_for(
      const std::vector<PlanKey>& keys, int n_lists,
      const std::vector<std::int64_t>& flops, Included included) {
    const std::type_index type{typeid(BatchRowPartition<IT>)};
    for (const auto& e : batch_parts_) {
      if (e.n_lists == n_lists && e.type == type && e.nrows == flops.size() &&
          e.keys == keys) {
        return *static_cast<const BatchRowPartition<IT>*>(e.part.get());
      }
    }
    auto part = std::make_shared<BatchRowPartition<IT>>(
        build_batch_partition<IT>(flops, static_cast<int>(keys.size()),
                                  included, n_lists));
    const BatchRowPartition<IT>& ref = *part;
    batch_parts_.push_back(BatchPartitionEntry{keys, n_lists, flops.size(),
                                               type, std::move(part)});
    while (batch_parts_.size() > kMaxBatchPartitions) {
      batch_parts_.pop_front();
    }
    return ref;
  }

  std::size_t max_plans_;
  std::unordered_map<PlanKey, std::shared_ptr<void>, PlanKeyHash> plans_;
  std::deque<PlanKey> order_;
  CacheStats stats_;
  std::vector<std::unordered_map<std::type_index, std::shared_ptr<void>>>
      thread_scratch_;
  std::deque<BatchPartitionEntry> batch_parts_;
  FingerprintTransform fp_transform_ = nullptr;
};

}  // namespace msp
