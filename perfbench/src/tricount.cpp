// tricount: C = L ⊙ (L·L) on R-MAT 18, edge factor 16, degree-relabeled.
// One op is one call through a warm Engine with bound handles and kAuto at
// the default OpenMP team (nproc); op_p50_1t_ms is the same op at one
// thread. The plan is warm, so kernels and drivers carry the op, and the
// mask is as dense as the operand.
#include <memory>

#include "bench.hpp"

namespace pb {
namespace {

constexpr int kScale = 18;
constexpr double kEdgeFactor = 16.0;

struct State {
  Csr l;
  msp::Engine engine;
  std::unique_ptr<Bound> lh;

  Csr op() {
    return engine.multiply(*lh, *lh).mask(*lh).scheme(msp::Scheme::kAuto).run();
  }
};

std::unique_ptr<State> setup(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  st->l = relabel_tril(rmat(kScale, kEdgeFactor, seed));
  st->lh = std::make_unique<Bound>(st->l);
  (void)st->op();  // warm-up: fingerprints, plan, scratch
  return st;
}

}  // namespace

void run_tricount(const Options& opt, Report& rep, Tracer& tr) {
  std::unique_ptr<State> st;
  Csr ref;  // computed once, after the first set-up: every set-up is identical
  auto reference = [&] {
    if (ref.nrows == 0) {
      ref = msp::baseline_dot<SR>(st->l, st->l, st->l, msp::MaskKind::kMask);
    }
  };
  auto verify = [&](int, const Csr& c) { return c == ref; };
  auto none = [](int) {};
  auto run = [&](int) { return st->op(); };
  auto describe = [&] {
    const Csr& l = st->l;
    rep.note("nnz_l", static_cast<double>(l.nnz()));
    rep.note("nnz_c", static_cast<double>(ref.nnz()));
    rep.note("working_set_bytes",
             static_cast<double>(csr_bytes(l) + csr_bytes(ref)));
    rep.note("msa_dense_bytes_per_thread",
             static_cast<double>(l.ncols) * (sizeof(VT) + 1));
    rep.note("flops_per_op", masked_flops(l, l, l));
  };
  if (!opt.trace) {
    untraced_run(
        opt, rep, 11, 2, [&] { st.reset(); },
        [&](int) { st = setup(opt.seed); },
        reference, none, run, verify,
        [] { return self_peak_rss_mb(); });
    describe();
    return;
  }

  st = setup(opt.seed);
  reference();
  describe();
  const Csr& l = st->l;
  double bare_ms = 0;
  (void)traced_loop(rep, tr, 0.3 * kTraceSeconds, 10, bare_ms, none, run,
                    [&](int i) {
                      const auto id = static_cast<std::uint64_t>(i);
                      const auto op = tr.span("bench", "op", id);
                      const auto s = tr.span("engine", "multiply", id);
                      return st->op();
                    },
                    verify);
  product_rungs(rep, tr, l, l, {&l}, {&ref}, msp::Scheme::kAuto,
                0.7 * kTraceSeconds);
}

}  // namespace pb
