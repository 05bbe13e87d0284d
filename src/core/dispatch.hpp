// DEPRECATED free-function dispatch shims.
//
// The Scheme registry itself lives in core/scheme.hpp and the primary
// entry point is the `msp::Engine` facade (core/engine.hpp): bound-operand
// handles, the fluent builder, and the type-erased `multiply_dyn` runtime
// path. The free functions below are kept as thin shims so existing
// callers keep compiling — each one forwards into the same facade/context
// path and produces bit-identical results — but new code should call the
// Engine directly:
//
//   run_scheme(s, a, b, m, ctx, ...)   →  Engine(ctx).multiply(a, b)
//                                             .mask(m)...scheme(s).run()
//   run_scheme(s, a, b, m, kind)       →  planless masked_multiply (no
//                                         context: zero-state path)
//   run_scheme_batch(...)              →  Engine::multiply_batch
//
// All overloads reject unsupported (scheme, mask kind) combinations with
// a typed unsupported_scheme_error naming the scheme (core/scheme.hpp),
// and resolve `kAuto` through tuner::resolve_auto, as the Engine does.
#pragma once

#include <vector>

#include "core/baseline.hpp"
#include "core/engine.hpp"
#include "core/masked_spgemm.hpp"
#include "core/scheme.hpp"
#include "core/tuner.hpp"
#include "matrix/ops.hpp"

namespace msp {

/// DEPRECATED shim — prefer the Engine builder. Run one scheme planless:
/// C = M ⊙ (A·B) (or complemented). `kAuto` resolves through the same
/// tuner::resolve_auto the Engine uses, with no profile (there is no plan,
/// so the warm two-phase upgrade never applies).
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> run_scheme(Scheme s, const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b,
                             const CsrMatrix<IT, MT>& m,
                             MaskKind kind = MaskKind::kMask) {
  require_scheme_supports(s, kind);
  MaskedSpgemmOptions opt;
  opt.mask_kind = kind;
  if (s == Scheme::kAuto) {
    tuner::AutoDecision decision;
    tuner::resolve_auto(nullptr, build_flops_histogram(row_flops(a, b)),
                        m.nnz(), static_cast<std::int64_t>(m.nrows),
                        static_cast<std::int64_t>(m.ncols), decision, opt);
    return masked_multiply<SR>(a, b, m, opt);
  }
  if (scheme_to_options(s, opt)) {
    return masked_multiply<SR>(a, b, m, opt);
  }
  if (s == Scheme::kSsDot) return baseline_dot<SR>(a, b, m, kind);
  return baseline_saxpy<SR>(a, b, m, kind);
}

/// DEPRECATED shim — prefer the Engine builder. Run one scheme through an
/// ExecutionContext; forwards to the Engine facade's typed core (plan
/// cache, per-thread scratch, planless baselines with the plan-derived
/// stats fields filled).
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> run_scheme(Scheme s, const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b,
                             const CsrMatrix<IT, MT>& m,
                             ExecutionContext& ctx,
                             MaskKind kind = MaskKind::kMask,
                             MaskedSpgemmStats* stats = nullptr,
                             MaskSemantics semantics =
                                 MaskSemantics::kStructural) {
  Engine engine(ctx);
  return engine.multiply_scheme<SR>(s, a, b, m, kind, semantics, stats);
}

/// DEPRECATED shim — prefer Engine::multiply_batch. N masks against one
/// A·B through the context's batched path (baselines loop).
template <Semiring SR, class IT, class VT, class MT>
std::vector<CsrMatrix<IT, VT>> run_scheme_batch(
    Scheme s, const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
    const std::vector<const CsrMatrix<IT, MT>*>& masks,
    ExecutionContext& ctx, MaskKind kind = MaskKind::kMask,
    MaskedSpgemmStats* stats = nullptr,
    MaskSemantics semantics = MaskSemantics::kStructural) {
  Engine engine(ctx);
  return engine.multiply_batch<SR>(s, a, b, masks, kind, semantics, stats);
}

/// DEPRECATED shim — prefer the Engine builder with a bound B handle
/// (whose CSC-transpose cache serves the same purpose). Like the planless
/// run_scheme, but with a pre-transposed copy of B for the pull-based
/// Inner schemes (the paper stores B in CSC for those; the transpose is
/// preparation, not part of the measured multiply). SS:DOT deliberately
/// ignores `b_csc` — its per-call transpose is part of the baseline's
/// modeled overhead (paper §8.4).
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> run_scheme_csc(Scheme s, const CsrMatrix<IT, VT>& a,
                                 const CsrMatrix<IT, VT>& b,
                                 const CscMatrix<IT, VT>& b_csc,
                                 const CsrMatrix<IT, MT>& m,
                                 MaskKind kind = MaskKind::kMask) {
  require_scheme_supports(s, kind);
  if (s == Scheme::kInner1P || s == Scheme::kInner2P) {
    MaskedSpgemmOptions opt;
    opt.mask_kind = kind;
    opt.phase = s == Scheme::kInner2P ? MaskedPhase::kTwoPhase
                                      : MaskedPhase::kOnePhase;
    opt.algorithm = MaskedAlgorithm::kInner;
    return masked_multiply_inner<SR>(a, b_csc, m, opt);
  }
  return run_scheme<SR>(s, a, b, m, kind);
}

}  // namespace msp
