// kAuto dispatch-quality benchmark: calibrated (tuned) vs empty-grid
// (untuned) vs best static scheme, on the two workloads the baseline
// records — triangle counting on an R-MAT graph and the batched
// multi-mask query service. For each workload it also prints what kAuto
// resolves to, tuned and untuned, as one line per run:
//
//   <workload> resolved <tuned|untuned> algo=<MSA|Hash|Heap|Adaptive>
//       phase=<1P|2P> warm_phase=<1P|2P>
//
// (`warm_phase` is the phase once the plan holds the output structure).
//
// The tuned run loads the profile from MSP_TUNE_PROFILE when set,
// otherwise calibrates in-process (quick grid; MSP_TUNE_FULL=1 for the
// full grid) outside the timed region. All three configurations must
// produce bit-identical outputs — `identical` is asserted per workload
// and printed. Acceptance (ISSUE 7): tuned kAuto matches or beats
// untuned kAuto on every entry and is never more than 5% slower than
// the best static scheme.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "apps/tricount.hpp"
#include "core/tuner.hpp"
#include "harness.hpp"

namespace {

using namespace msp;
using namespace msp::bench;

tuner::TuneProfile acquire_profile() {
  if (const tuner::TuneProfile* env = tuner::env_profile()) return *env;
  tuner::CalibrationOptions opts;
  opts.quick = env_long("MSP_TUNE_FULL", 0) == 0;
  return tuner::calibrate(opts);
}

/// Print the first-call kAuto resolution of one workload, through the
/// same tuner::resolve_auto the Engine calls (`selector` null: untuned).
void print_resolved(const char* workload, const tuner::TunedSelector* selector,
                    const std::vector<std::int64_t>& row_flops,
                    std::size_t mask_nnz, std::int64_t nrows,
                    std::int64_t ncols) {
  MaskedSpgemmOptions opt;
  tuner::AutoDecision dec;
  tuner::resolve_auto(selector, build_flops_histogram(row_flops), mask_nnz,
                      nrows, ncols, dec, opt);
  const auto name = [](MaskedPhase p) {
    return p == MaskedPhase::kOnePhase ? "1P" : "2P";
  };
  std::printf("%s resolved %s algo=%s phase=%s warm_phase=%s\n", workload,
              selector != nullptr ? "tuned" : "untuned",
              algorithm_name(opt.algorithm), name(opt.phase),
              name(opt.exact_phase_when_cached ? MaskedPhase::kTwoPhase
                                               : opt.phase));
}

bool identical(const std::vector<Graph>& xs, const std::vector<Graph>& ys) {
  if (xs.size() != ys.size()) return false;
  for (std::size_t q = 0; q < xs.size(); ++q) {
    const Graph& x = xs[q];
    const Graph& y = ys[q];
    if (x.nrows != y.nrows || x.ncols != y.ncols || x.rowptr != y.rowptr ||
        x.colids != y.colids || x.values != y.values) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const int scale = static_cast<int>(env_long("MSP_SCALE", 12));
  const int mm_scale = static_cast<int>(env_long("MSP_MULTIMASK_SCALE", 12));
  const int n_masks = static_cast<int>(env_long("MSP_BATCH", 8));
  const int rows_log = static_cast<int>(env_long("MSP_MASK_ROWS_LOG", 8));
  const int repetitions = reps();

  const tuner::TuneProfile profile = acquire_profile();
  // Refinement off: prints the decision the tuned engine starts from.
  const tuner::TunedSelector selector(profile, /*online_refine=*/false);
  const tuner::TunedSelector* const selectors[] = {&selector, nullptr};
  std::printf("# scheme_auto: kAuto tuned vs untuned vs best static "
              "(%s profile, %d reps)\n",
              profile.quick ? "quick" : "full", repetitions);

  // ---- Triangle counting: C = L ⊙ (L·L) on rmat<scale>-ef16 ----
  {
    const Graph g = rmat_graph<IT, VT>(scale, 16.0);
    const auto input = tricount_prepare(g);
    const auto l_flops = row_flops(input.l, input.l);
    for (const tuner::TunedSelector* sel : selectors) {
      print_resolved("tricount", sel, l_flops, input.l.nnz(), input.l.nrows,
                     input.l.ncols);
    }

    // Bound-operand handles for every engine: the steady-state service
    // shape (PR 4) — fingerprints and per-row flops come from the handle
    // cache, so the tuned decision costs no extra operand scan per call.
    auto measure = [&](Engine& engine) {
      const auto l = engine.bind(input.l);
      (void)triangle_count(input, Scheme::kAuto, engine, &l);  // plan warmup
      std::int64_t tris = 0;
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < repetitions; ++r) {
        const auto res = triangle_count(input, Scheme::kAuto, engine, &l);
        best = std::min(best, res.spgemm_seconds);
        tris = res.triangles;
      }
      return std::pair<double, std::int64_t>{best, tris};
    };

    Engine heuristic_engine;
    heuristic_engine.untuned();
    const auto [untuned_s, untuned_tris] = measure(heuristic_engine);

    Engine tuned_engine;
    tuned_engine.tuned(profile);
    const auto [tuned_s, tuned_tris] = measure(tuned_engine);

    std::string best_name = "none";
    double best_static = std::numeric_limits<double>::infinity();
    std::int64_t static_tris = untuned_tris;
    for (Scheme s : {Scheme::kMsa1P, Scheme::kMsa2P, Scheme::kHash1P,
                     Scheme::kHash2P}) {
      Engine engine;
      const auto l = engine.bind(input.l);
      (void)triangle_count(input, s, engine, &l);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < repetitions; ++r) {
        const auto res = triangle_count(input, s, engine, &l);
        best = std::min(best, res.spgemm_seconds);
        static_tris = res.triangles;
      }
      if (best < best_static) {
        best_static = best;
        best_name = scheme_name(s);
      }
    }

    const bool same =
        untuned_tris == tuned_tris && untuned_tris == static_tris;
    std::printf("tricount scale=%d untuned_s=%.6f tuned_s=%.6f "
                "best_static=%s best_static_s=%.6f identical=%d\n",
                scale, untuned_s, tuned_s, best_name.c_str(), best_static,
                same ? 1 : 0);
  }

  // ---- Batched multi-mask queries over rmat<mm_scale>-ef8 ----
  {
    const double ef = 8.0;
    const Graph g = rmat_graph<IT, VT>(mm_scale, ef);
    std::vector<Graph> mask_store;
    mask_store.reserve(static_cast<std::size_t>(n_masks));
    for (int q = 0; q < n_masks; ++q) {
      const std::uint64_t salt =
          0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(q + 1);
      const int shift = 64 - rows_log;
      mask_store.push_back(select(g, [salt, shift](IT i, IT, const VT&) {
        const std::uint64_t h = (static_cast<std::uint64_t>(i) + 1) *
                                    0x2545f4914f6cdd1dULL +
                                salt;
        return (h >> shift) == 0;
      }));
    }
    std::vector<const Graph*> masks;
    std::size_t mask_nnz = 0;
    for (const Graph& m : mask_store) {
      masks.push_back(&m);
      mask_nnz += m.nnz();
    }
    // One decision for the whole batch, from the average mask (as
    // Engine::multiply_batch resolves it).
    mask_nnz /= std::max<std::size_t>(1, masks.size());
    const auto g_flops = row_flops(g, g);
    for (const tuner::TunedSelector* sel : selectors) {
      print_resolved("multimask", sel, g_flops, mask_nnz, g.nrows, g.ncols);
    }

    auto measure_batch = [&](bool tuned) {
      std::vector<Graph> out;
      const double best = time_best(
          [&] {
            Engine engine;
            if (tuned) {
              engine.tuned(profile);
            } else {
              engine.untuned();
            }
            out = engine.multiply_batch<PlusTimes<VT>>(Scheme::kAuto, g, g,
                                                       masks);
          },
          repetitions);
      return std::pair<double, std::vector<Graph>>{best, std::move(out)};
    };

    const auto [untuned_s, untuned_out] = measure_batch(false);
    const auto [tuned_s, tuned_out] = measure_batch(true);

    std::string best_name = "none";
    double best_static = std::numeric_limits<double>::infinity();
    std::vector<Graph> static_out;
    for (Scheme s : {Scheme::kMsa1P, Scheme::kMsa2P, Scheme::kHash2P}) {
      std::vector<Graph> out;
      const double best = time_best(
          [&] {
            Engine engine;
            out = engine.multiply_batch<PlusTimes<VT>>(s, g, g, masks);
          },
          repetitions);
      if (best < best_static) {
        best_static = best;
        best_name = scheme_name(s);
        static_out = std::move(out);
      }
    }

    const bool same = identical(untuned_out, tuned_out) &&
                      identical(untuned_out, static_out);
    std::printf("multimask scale=%d batch=%d untuned_s=%.6f tuned_s=%.6f "
                "best_static=%s best_static_s=%.6f identical=%d\n",
                mm_scale, n_masks, untuned_s, tuned_s, best_name.c_str(),
                best_static, same ? 1 : 0);
  }
  return 0;
}
