// stream: C = M ⊙ (A·B) over R-MAT 17, edge factor 8 (vertex ids shuffled),
// with A dynamic (DeltaMatrix) and B = M = the graph, scheme fixed to MSA-2P (kAuto would
// bypass the Engine's result splice). One op is one seeded burst of edits
// (~0.1% of nnz, about 1/3 deletes, inside one row window) applied with
// Engine::update, then a re-query with bound handles. The reference keeps
// its own copy of A, applies each burst to it, and recomputes only the
// touched rows on a fresh Engine with another kernel (masked products are
// row-local).
#include <map>
#include <memory>
#include <span>

#include "bench.hpp"
#include "matrix/delta.hpp"

namespace pb {
namespace {

constexpr int kScale = 17;
constexpr double kEdgeFactor = 8.0;
constexpr msp::Scheme kScheme = msp::Scheme::kMsa2P;
using Edit = msp::EdgeUpdate<IT, VT>;

// A matrix kept as one sorted (column, value) list per row, so that the
// reference side rewrites only the rows a burst touches, never the whole
// matrix.
struct Rows {
  IT ncols = 0;
  std::vector<std::vector<std::pair<IT, VT>>> r;

  Rows() = default;
  explicit Rows(const Csr& x) : ncols(x.ncols), r(static_cast<std::size_t>(x.nrows)) {
    for (IT i = 0; i < x.nrows; ++i) {
      auto& row = r[static_cast<std::size_t>(i)];
      for (IT p = x.rowptr[i]; p < x.rowptr[i + 1]; ++p) {
        row.emplace_back(x.colids[p], x.values[p]);
      }
    }
  }

  [[nodiscard]] IT nrows() const { return static_cast<IT>(r.size()); }

  [[nodiscard]] std::size_t nnz() const {
    std::size_t n = 0;
    for (const auto& row : r) n += row.size();
    return n;
  }

  [[nodiscard]] Csr csr() const {
    std::vector<IT> rowptr{0};
    std::vector<IT> colids;
    std::vector<VT> values;
    for (const auto& row : r) {
      for (const auto& [c, v] : row) {
        colids.push_back(c);
        values.push_back(v);
      }
      rowptr.push_back(static_cast<IT>(colids.size()));
    }
    return Csr(nrows(), ncols, std::move(rowptr), std::move(colids),
               std::move(values));
  }

  // Row k of `sub` becomes row rows[k].
  void assign(const std::vector<IT>& rows, const Csr& sub) {
    for (std::size_t k = 0; k < rows.size(); ++k) {
      auto& row = r[static_cast<std::size_t>(rows[k])];
      row.clear();
      for (IT p = sub.rowptr[k]; p < sub.rowptr[k + 1]; ++p) {
        row.emplace_back(sub.colids[p], sub.values[p]);
      }
    }
  }

  // Bit-for-bit equality with `c`, as CsrMatrix's operator== would find it.
  [[nodiscard]] bool equals(const Csr& c) const {
    if (c.nrows != nrows() || c.ncols != ncols) return false;
    for (IT i = 0; i < c.nrows; ++i) {
      const auto& row = r[static_cast<std::size_t>(i)];
      if (static_cast<std::size_t>(c.rowptr[i + 1] - c.rowptr[i]) != row.size()) {
        return false;
      }
      for (std::size_t k = 0; k < row.size(); ++k) {
        const auto p = static_cast<std::size_t>(c.rowptr[i]) + k;
        if (c.colids[p] != row[k].first || c.values[p] != row[k].second) {
          return false;
        }
      }
    }
    return true;
  }
};

struct State {
  Csr b;
  Csr m;
  std::unique_ptr<msp::DeltaMatrix<IT, VT>> dm;
  msp::Engine engine;
  std::unique_ptr<Bound> ah;
  std::unique_ptr<Bound> bh;
  std::unique_ptr<Bound> mh;
  Rng rng{0, 0};
  std::size_t edits_per_op = 0;

  // The reference side: A and C as the benchmark itself tracks them.
  Rows model_a;
  Rows ref_c;
  bool have_ref = false;

  // Next op's burst and its distinct rows.
  std::vector<Edit> edits;
  std::vector<IT> rows;

  // Draw a burst from the model and apply it there (and to the reference
  // result once it exists). Outside any timed interval.
  void next_burst() {
    const IT n = model_a.nrows();
    const auto window = static_cast<IT>(
        std::min<std::size_t>(static_cast<std::size_t>(n),
                              std::max<std::size_t>(256, edits_per_op)));
    const IT w0 = static_cast<IT>(rng.below(static_cast<std::uint64_t>(n - window + 1)));
    edits.clear();
    for (std::size_t e = 0; e < edits_per_op; ++e) {
      Edit u;
      u.row = w0 + static_cast<IT>(rng.below(static_cast<std::uint64_t>(window)));
      const auto& row = model_a.r[static_cast<std::size_t>(u.row)];
      if (rng.below(3) == 0 && !row.empty()) {
        u.col = row[rng.below(row.size())].first;
        u.remove = true;
      } else {
        u.col = static_cast<IT>(rng.below(static_cast<std::uint64_t>(model_a.ncols)));
        u.value = static_cast<VT>(1 + rng.below(9));
      }
      edits.push_back(u);
    }
    // Apply to the model: per touched row, in order, last write wins.
    std::map<IT, std::map<IT, VT>> touched;
    for (const Edit& u : edits) {
      if (touched.count(u.row) == 0) {
        auto& row = touched[u.row];
        for (const auto& [c, v] : model_a.r[static_cast<std::size_t>(u.row)]) {
          row[c] = v;
        }
      }
      auto& row = touched[u.row];
      if (u.remove) {
        row.erase(u.col);
      } else {
        row[u.col] = u.value;
      }
    }
    rows.clear();
    std::vector<IT> rowptr{0};
    std::vector<IT> colids;
    std::vector<VT> values;
    for (const auto& [r, row] : touched) {
      rows.push_back(r);
      for (const auto& [c, v] : row) {
        colids.push_back(c);
        values.push_back(v);
      }
      rowptr.push_back(static_cast<IT>(colids.size()));
    }
    const Csr sub(static_cast<IT>(rows.size()), model_a.ncols,
                  std::move(rowptr), std::move(colids), std::move(values));
    model_a.assign(rows, sub);
    if (have_ref) {
      ref_c.assign(rows, reference_compact(sub, b, gather_rows(m, rows)));
    }
  }

  Csr requery(msp::MaskedSpgemmStats* stats = nullptr) {
    return engine.multiply(*ah, *bh).mask(*mh).scheme(kScheme).stats(stats).run();
  }

  void update() {
    (void)engine.update(*dm, *ah, std::span<const Edit>(edits));
  }

  Csr op() {
    update();
    return requery();
  }
};

// `part` selects the stream of edit bursts.
std::unique_ptr<State> setup(std::uint64_t seed, int part) {
  auto st = std::make_unique<State>();
  Rng shuffle(seed, 0x5f1e);
  Csr g = shuffle_vertices(rmat(kScale, kEdgeFactor, seed), shuffle);
  st->b = g;
  st->m = g;
  st->model_a = Rows(g);
  st->edits_per_op = std::max<std::size_t>(1, g.nnz() / 1000);
  st->rng = Rng(seed, 0x57e4 + static_cast<std::uint64_t>(part));
  st->dm = std::make_unique<msp::DeltaMatrix<IT, VT>>(std::move(g));
  st->ah = std::make_unique<Bound>(st->dm->matrix());
  st->bh = std::make_unique<Bound>(st->b);
  st->mh = std::make_unique<Bound>(st->m);
  // Warm-up: a first burst switches A's handle to its dirty log, the first
  // query plans and seeds the result cache, then two ops reach steady state.
  for (int w = 0; w < 3; ++w) {
    st->next_burst();
    (void)st->op();
  }
  return st;
}

}  // namespace

void run_stream(const Options& opt, Report& rep, Tracer& tr) {
  std::unique_ptr<State> st;
  auto reference = [&] {
    if (!st->have_ref) {
      st->ref_c = Rows(reference_rows(st->model_a.csr(), st->b, st->m));
      st->have_ref = true;
    }
  };
  auto prep = [&](int) { st->next_burst(); };
  auto verify = [&](int, const Csr& c) { return st->ref_c.equals(c); };
  auto run = [&](int) { return st->op(); };
  auto describe = [&] {
    rep.note("nnz_a", static_cast<double>(st->model_a.nnz()));
    rep.note("edits_per_op", static_cast<double>(st->edits_per_op));
    rep.note("working_set_bytes",
             static_cast<double>(3 * csr_bytes(st->b) + csr_bytes(st->ref_c.csr())));
  };
  if (!opt.trace) {
    untraced_run(
        opt, rep, 30, 11, [&] { st.reset(); },
        [&](int r) { st = setup(opt.seed, r); },
        reference, prep, run, verify,
        [] { return self_peak_rss_mb(); });
    describe();
    return;
  }

  st = setup(opt.seed, 0);
  reference();
  describe();
  // Public counters, read only here: CacheStats deltas over the loop and
  // each re-query's MaskedSpgemmStats.
  const msp::ExecutionContext::CacheStats c0 = st->engine.cache_stats();
  double rows_refreshed = 0;
  double symbolic_skips = 0;
  double touched_rows = 0;
  auto counted = [&](msp::MaskedSpgemmStats& ms) {
    rows_refreshed += static_cast<double>(ms.plan_rows_refreshed);
    symbolic_skips += ms.symbolic_skipped ? 1.0 : 0.0;
  };
  double bare_ms = 0;
  const Latencies loop = traced_loop(
      rep, tr, 0.3 * kTraceSeconds, 40, bare_ms,
      [&](int) {
        st->next_burst();
        touched_rows += static_cast<double>(st->rows.size());
      },
      [&](int) {
        msp::MaskedSpgemmStats ms;
        st->update();
        Csr c = st->requery(&ms);
        counted(ms);
        return c;
      },
      [&](int i) {
        const auto id = static_cast<std::uint64_t>(i);
        const auto op = tr.span("bench", "op", id);
        msp::MaskedSpgemmStats ms;
        {
          const auto s = tr.span("delta", "update", id);
          st->update();
        }
        Csr c;
        {
          const auto s = tr.span("engine", "requery", id);
          c = st->requery(&ms);
        }
        counted(ms);
        return c;
      },
      verify);
  const msp::ExecutionContext::CacheStats c1 = st->engine.cache_stats();
  const auto ops = static_cast<double>(loop.ms.size());
  rep.metric("plan.rows_refreshed_per_op", rows_refreshed / ops, "count");
  rep.metric("plan.symbolic_skip_ratio", symbolic_skips / ops, "ratio");
  rep.metric("delta.update_ms", tr.median_span_ms("delta", "update"), "ms");
  rep.metric("engine.requery_ms", tr.median_span_ms("engine", "requery"), "ms");
  rep.metric("engine.splice_ratio",
             static_cast<double>(c1.result_splices - c0.result_splices) / ops,
             "ratio");
  rep.metric("engine.recompute_amplification",
             static_cast<double>(c1.result_rows_recomputed -
                                 c0.result_rows_recomputed) /
                 std::max(1.0, touched_rows),
             "ratio");

  // Rebuild rung: the same apply, then a cold query on a fresh Engine with
  // raw operands (no cached plan or result).
  {
    const auto span = tr.span("engine", "rebuild");
    const Latencies rebuild = closed_loop(
        rep, 0.1 * kTraceSeconds, 3, 1 << 20, prep,
        [&](int) {
          st->update();
          msp::Engine fresh;
          return fresh.multiply(st->dm->matrix(), st->b)
              .mask(st->m)
              .scheme(kScheme)
              .run();
        },
        verify);
    rep.metric("engine.rebuild_over_incremental",
               rebuild.median() / bare_ms, "ratio");
  }
  // The product rungs mask a quarter of the rows: over the full product,
  // Heap-1P alone takes more than 30 s on a 4-vCPU host.
  Rng pick(opt.seed, 0x7a1e);
  const Csr m_part = row_subset(st->m, sample_rows(st->m.nrows, 4, pick));
  const Csr ref_part = reference_rows(st->model_a.csr(), st->b, m_part);
  product_rungs(rep, tr, st->dm->matrix(), st->b, {&m_part}, {&ref_part},
                kScheme, 0.5 * kTraceSeconds);
}

}  // namespace pb
