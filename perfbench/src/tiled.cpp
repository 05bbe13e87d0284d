// tiled-spill: R-MAT 18, edge factor 8. A is split into 8 nnz-balanced
// shards in a ShardStore with the default backend and default prefetch,
// under a resident budget of a quarter of A's bytes; B is whole and bound.
// One op is one masked product (MSA-2P) with a fresh sparse row-subset mask
// (1/256 of the rows) through TiledEngine, so every op spills and reloads
// shards.
#include <memory>

#include "bench.hpp"
#include "core/tiled_engine.hpp"

namespace pb {
namespace {

constexpr int kScale = 18;
constexpr double kEdgeFactor = 8.0;
constexpr int kShards = 8;
constexpr int kMaskEvery = 256;
constexpr msp::Scheme kScheme = msp::Scheme::kMsa2P;
using Sharded = msp::ShardedMatrix<IT, VT>;

struct State {
  Csr g;  // A and B; masks are row subsets of it
  std::unique_ptr<msp::ShardStore> store;
  std::unique_ptr<Sharded> ash;
  std::unique_ptr<Bound> bh;
  msp::TiledEngine tiled;
  Rng rng{0, 0};
  Csr mask;

  void next_mask() { mask = row_subset(g, sample_rows(g.nrows, kMaskEvery, rng)); }

  Csr op(const Sharded& a) {
    return tiled.multiply<SR>(kScheme, a, g, mask, msp::MaskKind::kMask,
                              msp::MaskSemantics::kStructural, nullptr,
                              bh.get());
  }
};

// `part` selects the stream of masks.
std::unique_ptr<State> setup(std::uint64_t seed, int part) {
  auto st = std::make_unique<State>();
  st->g = rmat(kScale, kEdgeFactor, seed);
  st->rng = Rng(seed, 0x711e + static_cast<std::uint64_t>(part));
  msp::ShardStore::Options so;
  so.resident_budget = csr_bytes(st->g) / 4;
  st->store = std::make_unique<msp::ShardStore>(so);
  st->ash = std::make_unique<Sharded>(
      st->g, Sharded::balanced_ranges(st->g, kShards), st->store.get());
  st->bh = std::make_unique<Bound>(st->g);
  for (int w = 0; w < 2; ++w) {
    st->next_mask();
    (void)st->op(*st->ash);
  }
  return st;
}

}  // namespace

void run_tiled(const Options& opt, Report& rep, Tracer& tr) {
  std::unique_ptr<State> st;
  Csr ref;
  auto prep = [&](int) {
    st->next_mask();
    ref = reference_rows(st->g, st->g, st->mask);
  };
  auto verify = [&](int, const Csr& c) { return c == ref; };
  auto run = [&](int) { return st->op(*st->ash); };
  auto describe = [&] {
    const std::size_t bytes = csr_bytes(st->g);
    rep.note("nnz_a", static_cast<double>(st->g.nnz()));
    rep.note("a_bytes", static_cast<double>(bytes));
    rep.note("resident_budget_bytes", static_cast<double>(bytes / 4));
    rep.note("working_set_bytes", static_cast<double>(2 * bytes));
  };
  if (!opt.trace) {
    untraced_run(
        opt, rep, 30, 11, [&] { st.reset(); },
        [&](int r) { st = setup(opt.seed, r); },
        [] {}, prep, run, verify,
        [] { return self_peak_rss_mb(); });
    describe();
    return;
  }

  st = setup(opt.seed, 0);
  describe();
  const Csr& g = st->g;
  const msp::ShardStore::Stats& ss = st->store->stats();
  const std::size_t reloads0 = ss.reloads;
  const std::size_t spills0 = ss.spills;
  const std::size_t wasted0 = ss.prefetch_wasted;
  const std::size_t pf0 = ss.prefetches;
  const std::size_t hits0 = ss.prefetch_hits;
  double bare_ms = 0;
  const Latencies loop = traced_loop(
      rep, tr, 0.3 * kTraceSeconds, 40, bare_ms, prep, run,
      [&](int i) {
        const auto id = static_cast<std::uint64_t>(i);
        const auto op = tr.span("bench", "op", id);
        const auto s = tr.span("tiled", "multiply", id);
        return st->op(*st->ash);
      },
      verify);
  const auto ops = static_cast<double>(loop.ms.size());
  rep.metric("store.reloads_per_op",
             static_cast<double>(ss.reloads - reloads0) / ops, "count");
  rep.metric("store.spills_per_op",
             static_cast<double>(ss.spills - spills0) / ops, "count");
  rep.metric("store.prefetch_wasted_per_op",
             static_cast<double>(ss.prefetch_wasted - wasted0) / ops, "count");
  rep.metric("store.prefetch_hit_ratio",
             static_cast<double>(ss.prefetch_hits - hits0) /
                 std::max<double>(1.0, static_cast<double>(ss.prefetches - pf0)),
             "ratio");

  // Rungs on one fixed list of masks: monolithic Engine, resident shards,
  // the budget without prefetch, the budget with prefetch.
  std::vector<Csr> masks;
  std::vector<Csr> refs;
  for (int j = 0; j < 16; ++j) {
    st->next_mask();
    masks.push_back(st->mask);
    refs.push_back(reference_rows(g, g, st->mask));
  }
  auto rung = [&](const char* phase, auto&& run) {
    const auto span = tr.span("tiled", phase);
    return closed_loop(
        rep, 0.06 * kTraceSeconds, static_cast<int>(masks.size()), 1 << 20,
        [&](int i) { st->mask = masks[static_cast<std::size_t>(i) % masks.size()]; },
        run,
        [&](int i, const Csr& c) {
          return c == refs[static_cast<std::size_t>(i) % refs.size()];
        }).median();
  };
  msp::Engine mono;
  const Bound ah(g);
  const double mono_ms = rung("monolithic", [&](int) {
    return mono.multiply(ah, *st->bh).mask(st->mask).scheme(kScheme).run();
  });
  const Sharded resident(g, Sharded::balanced_ranges(g, kShards), nullptr);
  const double resident_ms =
      rung("resident", [&](int) { return st->op(resident); });
  st->tiled.set_prefetch(false);
  const std::size_t r0 = ss.reloads;
  std::size_t nopf_ops = 0;
  const double nopf_ms = rung("budget_no_prefetch", [&](int) {
    ++nopf_ops;
    return st->op(*st->ash);
  });
  const double reloads_per_op =
      static_cast<double>(ss.reloads - r0) / static_cast<double>(nopf_ops);
  st->tiled.set_prefetch(true);
  const double pf_ms =
      rung("budget_prefetch", [&](int) { return st->op(*st->ash); });
  const double reload_ms = nopf_ms - resident_ms;
  const double shard_bytes = static_cast<double>(csr_bytes(g)) / kShards;
  rep.metric("tiled.split_overhead_ms", resident_ms - mono_ms, "ms");
  rep.metric("store.reload_ms_per_op", reload_ms, "ms");
  rep.metric("store.prefetch_saved_ms", nopf_ms - pf_ms, "ms");
  rep.metric("store.reload_mb_s",
             reload_ms > 0 ? reloads_per_op * shard_bytes / (reload_ms * 1e-3) / 1e6
                           : 0.0,
             "MB/s");
  rep.note("rung_monolithic_ms", mono_ms);
  rep.note("rung_resident_ms", resident_ms);
  rep.note("rung_budget_no_prefetch_ms", nopf_ms);
  rep.note("rung_budget_prefetch_ms", pf_ms);

  serve_rungs(opt, rep, tr, g, masks, refs, 0.2 * kTraceSeconds);
  product_rungs(rep, tr, g, g, {&masks[0]}, {&refs[0]}, kScheme,
                0.3 * kTraceSeconds);
}

}  // namespace pb
