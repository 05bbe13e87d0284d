// Row-parallel drivers and the public Masked SpGEMM entry point.
//
// Two execution strategies (paper §6):
//  * one-phase (1P): allocate an upper-bounded temporary, compute, compact.
//    The bound exploits the paper's key observation that the mask is a good
//    size approximation: nnz(C(i,:)) ≤ nnz(M(i,:)) for a regular mask, and
//    ≤ min(ncols − nnz(M(i,:)), flops(i)) for a complemented one.
//  * two-phase (2P): a symbolic pass computes exact per-row counts, a prefix
//    sum turns them into row pointers, and the numeric pass writes in place.
//
// Parallelization is coarse-grained across rows (paper §3). There is one
// driver per phase, and both run N masks over one flops-binned partition
// of (mask, row) work items (core/plan.hpp): a single multiply is a batch
// of one. The plan-based path (core/exec_context.hpp) takes the partition
// and, for 2P, cached symbolic row pointers from its plans, so repeated
// multiplies skip the symbolic pass entirely; the planless path below
// builds a call-local one-mask partition from the row flops. Each thread
// owns one kernel instance per contiguous same-mask run of its items,
// whose scratch space is reused across all rows it processes (and,
// through ExecutionContext, across calls).
//
// The configuration types (MaskedAlgorithm, MaskKind, MaskedSpgemmOptions,
// MaskedSpgemmStats, ...) live in core/config.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/flops.hpp"
#include "core/plan.hpp"
#include "core/adaptive_kernel.hpp"
#include "core/hash_accumulator.hpp"
#include "core/heap_kernel.hpp"
#include "core/inner_kernel.hpp"
#include "core/mca_accumulator.hpp"
#include "core/msa_accumulator.hpp"
#include "matrix/convert.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"
#include "util/common.hpp"
#include "util/prefix_sum.hpp"
#include "util/timer.hpp"

namespace msp {

namespace detail {

template <class IT, class MT>
void validate_shapes(IT a_rows, IT a_cols, IT b_rows, IT b_cols,
                     const CsrMatrix<IT, MT>& m) {
  if (a_cols != b_rows) {
    throw invalid_argument_error("masked_multiply: inner dimension mismatch");
  }
  if (m.nrows != a_rows || m.ncols != b_cols) {
    throw invalid_argument_error("masked_multiply: mask shape mismatch");
  }
}

/// Item loop of the phase drivers. Each thread walks its lists of
/// (mask, row) items; items are sorted by (mask, row) within a list, so
/// one kernel is constructed per contiguous same-mask run (kernel
/// construction only binds references and borrows scratch — the scratch
/// itself is shared across every mask the thread touches, with no teardown
/// between masks). `active`, when non-null, skips whole masks (used by the
/// two-phase symbolic pass when some plans already carry their structure).
template <class IT, class KernelFactory, class ItemFn>
void for_each_batch_item(const BatchRowPartition<IT>& partition,
                         const std::vector<char>* active,
                         KernelFactory&& make_kernel, ItemFn&& fn) {
#pragma omp parallel
  {
    const int tid = thread_id();
    const int nt = region_threads();
    for (int l = tid; l < partition.lists(); l += nt) {
      const auto items = partition.list(l);
      std::size_t p = 0;
      while (p < items.size()) {
        const std::int32_t q = items[p].mask;
        if (active != nullptr && !(*active)[static_cast<std::size_t>(q)]) {
          while (p < items.size() && items[p].mask == q) ++p;
          continue;
        }
        auto kernel = make_kernel(tid, static_cast<int>(q));
        for (; p < items.size() && items[p].mask == q; ++p) {
          fn(kernel, static_cast<int>(q), items[p].row);
        }
      }
    }
  }
}

/// A kernel that serves local row k of a row-restricted one-phase run as
/// row `rows[k]` of the full operands, so the one-phase driver recomputes
/// an arbitrary ascending row subset (ExecutionContext::splice_rows) with
/// unchanged kernel code.
template <class Kernel, class IT>
struct RowMappedKernel {
  Kernel kernel;
  const IT* rows;

  template <class VT>
  IT numeric_row(IT k, IT* out_cols, VT* out_vals) {
    return kernel.numeric_row(rows[static_cast<std::size_t>(k)], out_cols,
                              out_vals);
  }
};

/// One-phase driver: N outputs in one pass over the (mask, row)
/// partition. `ub[q][i]` bounds row i's output size under mask q; each
/// temporary is laid out by the prefix sum of its bounds, and computed rows
/// are compacted into the final CSR with a second prefix sum over actual
/// counts. Every row is computed by the same kernel code whatever the
/// batch, so each output is bit-identical to a run of its mask alone. A
/// non-null, still-empty `structure_sinks[q]` receives output q's exact
/// row pointers, so a plan can skip future symbolic passes. `stats`, when
/// set, receives batch aggregates (summed bounds/nnz, whole-batch phase
/// timings).
template <class IT, class VT, class KernelFactory>
std::vector<CsrMatrix<IT, VT>> run_batch_one_phase(
    IT nrows, IT ncols, const std::vector<const std::vector<std::size_t>*>& ub,
    KernelFactory make_kernel, const BatchRowPartition<IT>& partition,
    const std::vector<std::vector<IT>*>& structure_sinks,
    MaskedSpgemmStats* stats = nullptr) {
  Timer phase_timer;
  const std::size_t n = ub.size();
  std::vector<std::vector<std::size_t>> offsets(n);
  std::vector<std::unique_ptr<IT[]>> tmp_cols(n);
  std::vector<std::unique_ptr<VT[]>> tmp_vals(n);
  std::vector<std::vector<IT>> counts(n);
  std::size_t bound_total = 0;
  for (std::size_t q = 0; q < n; ++q) {
    offsets[q].assign(static_cast<std::size_t>(nrows) + 1, 0);
    for (IT i = 0; i < nrows; ++i) {
      offsets[q][static_cast<std::size_t>(i) + 1] =
          offsets[q][static_cast<std::size_t>(i)] +
          (*ub[q])[static_cast<std::size_t>(i)];
    }
    const std::size_t cap = offsets[q].back();
    bound_total += cap;
    // Default-initialized (NOT zeroed) temporaries: a std::vector here
    // would value-initialize `cap` elements — a full write pass over memory
    // the kernels are about to overwrite anyway, big enough to distort the
    // one-phase/two-phase trade-off the paper measures in §6.
    tmp_cols[q].reset(new IT[cap]);
    tmp_vals[q].reset(new VT[cap]);
    counts[q].assign(static_cast<std::size_t>(nrows), 0);
  }

  for_each_batch_item(partition, nullptr, make_kernel,
                      [&](auto& kernel, int q, IT i) {
                        const std::size_t qs = static_cast<std::size_t>(q);
                        const std::size_t off =
                            offsets[qs][static_cast<std::size_t>(i)];
                        counts[qs][static_cast<std::size_t>(i)] =
                            kernel.numeric_row(i, tmp_cols[qs].get() + off,
                                               tmp_vals[qs].get() + off);
                        MSP_ASSERT(static_cast<std::size_t>(counts[qs][i]) <=
                                   (*ub[qs])[static_cast<std::size_t>(i)]);
                      });
  if (stats != nullptr) {
    stats->numeric_seconds = phase_timer.seconds();
    stats->bound_nnz = bound_total;
    phase_timer.reset();
  }

  std::vector<CsrMatrix<IT, VT>> outs;
  outs.reserve(n);
  std::size_t output_total = 0;
  for (std::size_t q = 0; q < n; ++q) {
    std::vector<IT> rowptr_counts = counts[q];
    const IT total = exclusive_prefix_sum(rowptr_counts);
    CsrMatrix<IT, VT> out(nrows, ncols);
    out.colids.resize(static_cast<std::size_t>(total));
    out.values.resize(static_cast<std::size_t>(total));
    for (IT i = 0; i < nrows; ++i) out.rowptr[i] = rowptr_counts[i];
    out.rowptr[nrows] = total;
#pragma omp parallel for schedule(dynamic, 64)
    for (IT i = 0; i < nrows; ++i) {
      const std::size_t src = offsets[q][static_cast<std::size_t>(i)];
      const std::size_t dst = static_cast<std::size_t>(out.rowptr[i]);
      const std::size_t c = static_cast<std::size_t>(counts[q][i]);
      std::copy_n(tmp_cols[q].get() + src, c, out.colids.data() + dst);
      std::copy_n(tmp_vals[q].get() + src, c, out.values.data() + dst);
    }
    output_total += out.nnz();
    if (structure_sinks[q] != nullptr && structure_sinks[q]->empty()) {
      *structure_sinks[q] = out.rowptr;
    }
    MSP_ASSERT(out.check_structure());
    outs.push_back(std::move(out));
  }
  if (stats != nullptr) {
    stats->assemble_seconds = phase_timer.seconds();
    stats->output_nnz = output_total;
  }
  return outs;
}

/// Two-phase driver: symbolic counts → prefix sum → numeric in place, for
/// N outputs over one partition. Masks whose plan already carries the
/// symbolic structure (`cached_rowptr[q] != nullptr`) skip the symbolic
/// pass; the rest are counted in one pass over the partition. The numeric
/// pass then runs over every item. Structure sinks and stats as in
/// run_batch_one_phase.
template <class IT, class VT, class KernelFactory>
std::vector<CsrMatrix<IT, VT>> run_batch_two_phase(
    IT nrows, IT ncols, KernelFactory make_kernel,
    const BatchRowPartition<IT>& partition,
    const std::vector<const std::vector<IT>*>& cached_rowptr,
    const std::vector<std::vector<IT>*>& structure_sinks,
    MaskedSpgemmStats* stats = nullptr) {
  Timer phase_timer;
  const std::size_t n = cached_rowptr.size();
  std::vector<CsrMatrix<IT, VT>> outs;
  outs.reserve(n);
  for (std::size_t q = 0; q < n; ++q) outs.emplace_back(nrows, ncols);

  std::vector<char> needs_symbolic(n, 0);
  bool any_symbolic = false;
  for (std::size_t q = 0; q < n; ++q) {
    needs_symbolic[q] = cached_rowptr[q] == nullptr ? 1 : 0;
    any_symbolic |= needs_symbolic[q] != 0;
  }

  if (any_symbolic) {
    std::vector<std::vector<IT>> counts(n);
    for (std::size_t q = 0; q < n; ++q) {
      if (needs_symbolic[q]) {
        counts[q].assign(static_cast<std::size_t>(nrows), 0);
      }
    }
    for_each_batch_item(partition, &needs_symbolic, make_kernel,
                        [&](auto& kernel, int q, IT i) {
                          counts[static_cast<std::size_t>(q)]
                                [static_cast<std::size_t>(i)] =
                                    kernel.symbolic_row(i);
                        });
    for (std::size_t q = 0; q < n; ++q) {
      if (!needs_symbolic[q]) continue;
      const IT total = exclusive_prefix_sum(counts[q]);
      for (IT i = 0; i < nrows; ++i) outs[q].rowptr[i] = counts[q][i];
      outs[q].rowptr[nrows] = total;
    }
  }
  for (std::size_t q = 0; q < n; ++q) {
    if (!needs_symbolic[q]) outs[q].rowptr = *cached_rowptr[q];
  }
  if (stats != nullptr) {
    stats->symbolic_seconds = any_symbolic ? phase_timer.seconds() : 0.0;
    stats->symbolic_skipped = !any_symbolic;
    phase_timer.reset();
  }

  for (std::size_t q = 0; q < n; ++q) {
    const IT total = outs[q].rowptr[nrows];
    outs[q].colids.resize(static_cast<std::size_t>(total));
    outs[q].values.resize(static_cast<std::size_t>(total));
  }
  for_each_batch_item(
      partition, nullptr, make_kernel, [&](auto& kernel, int q, IT i) {
        auto& out = outs[static_cast<std::size_t>(q)];
        const IT written =
            kernel.numeric_row(i, out.colids.data() + out.rowptr[i],
                               out.values.data() + out.rowptr[i]);
        MSP_ASSERT(written == out.rowptr[i + 1] - out.rowptr[i]);
        (void)written;
      });
  std::size_t output_total = 0;
  for (std::size_t q = 0; q < n; ++q) {
    output_total += outs[q].nnz();
    if (structure_sinks[q] != nullptr && structure_sinks[q]->empty()) {
      *structure_sinks[q] = outs[q].rowptr;
    }
    MSP_ASSERT(outs[q].check_structure());
  }
  if (stats != nullptr) {
    stats->numeric_seconds = phase_timer.seconds();
    stats->output_nnz = output_total;
  }
  return outs;
}

/// Per-row one-phase output bounds of the planless path (see file header):
/// nnz(M(i,:)) under a regular mask, min(ncols − nnz(M(i,:)), flops(i))
/// under a complemented one.
template <class IT, class MT>
std::vector<std::size_t> one_phase_bounds(
    const CsrMatrix<IT, MT>& m, IT ncols,
    const std::vector<std::int64_t>& flops, MaskKind kind) {
  std::vector<std::size_t> ub(static_cast<std::size_t>(m.nrows), 0);
#pragma omp parallel for schedule(static)
  for (IT i = 0; i < m.nrows; ++i) {
    const auto mask_nnz = static_cast<std::size_t>(m.row_nnz(i));
    ub[static_cast<std::size_t>(i)] =
        kind == MaskKind::kMask
            ? mask_nnz
            : std::min(static_cast<std::size_t>(ncols) - mask_nnz,
                       static_cast<std::size_t>(
                           flops[static_cast<std::size_t>(i)]));
  }
  return ub;
}

/// Planless execution of one mask: a call-local partition from the row
/// flops, then the phase driver. `make_kernel(tid)` builds a kernel that
/// owns its scratch; nothing is fingerprinted or cached.
template <class IT, class VT, class MT, class KernelFactory>
CsrMatrix<IT, VT> run_planless(const CsrMatrix<IT, MT>& m, IT ncols,
                               const std::vector<std::int64_t>& flops,
                               const MaskedSpgemmOptions& opt,
                               KernelFactory make_kernel) {
  const BatchRowPartition<IT> partition = build_mask_partition<IT>(
      flops, m, opt.mask_kind == MaskKind::kComplement, max_threads());
  auto factory = [&](int tid, int) { return make_kernel(tid); };
  if (opt.phase == MaskedPhase::kOnePhase) {
    const auto ub = one_phase_bounds(m, ncols, flops, opt.mask_kind);
    return std::move(run_batch_one_phase<IT, VT>(m.nrows, ncols, {&ub},
                                                 factory, partition,
                                                 {nullptr}, opt.stats)
                         .front());
  }
  return std::move(run_batch_two_phase<IT, VT>(m.nrows, ncols, factory,
                                               partition, {nullptr},
                                               {nullptr}, opt.stats)
                       .front());
}

}  // namespace detail

/// Masked SpGEMM with a pre-transposed B (CSC) for the Inner algorithm.
/// Use this overload to amortize the transpose across repeated calls.
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> masked_multiply_inner(const CsrMatrix<IT, VT>& a,
                                        const CscMatrix<IT, VT>& b_csc,
                                        const CsrMatrix<IT, MT>& m,
                                        const MaskedSpgemmOptions& opt = {}) {
  detail::validate_shapes(a.nrows, a.ncols, b_csc.nrows, b_csc.ncols, m);
  if (opt.mask_semantics == MaskSemantics::kValued) {
    // Same reduction as masked_multiply: drop explicit zeros (shared
    // parallel helper), then treat the filtered mask structurally.
    MaskedSpgemmOptions structural = opt;
    structural.mask_semantics = MaskSemantics::kStructural;
    return masked_multiply_inner<SR>(a, b_csc, drop_explicit_zeros(m),
                                     structural);
  }
  const bool complemented = opt.mask_kind == MaskKind::kComplement;
  return detail::run_planless<IT, VT>(
      m, b_csc.ncols, row_flops(a, b_csc), opt, [&](int) {
        return InnerKernel<SR, IT, VT, MT>(a, b_csc, m, complemented);
      });
}

/// Masked SpGEMM: C = M ⊙ (A·B) on semiring SR (or ¬M ⊙ (A·B) for a
/// complemented mask). The paper's 12 scheme variants are selected through
/// `opt` (algorithm × phase × mask kind). Only the mask's *pattern* is used;
/// its value type MT is irrelevant (paper §2).
template <Semiring SR, class IT, class VT, class MT>
CsrMatrix<IT, VT> masked_multiply(const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b,
                                  const CsrMatrix<IT, MT>& m,
                                  const MaskedSpgemmOptions& opt = {}) {
  detail::validate_shapes(a.nrows, a.ncols, b.nrows, b.ncols, m);
  if (opt.mask_semantics == MaskSemantics::kValued) {
    // Valued semantics reduce to structural semantics on the mask with its
    // explicit zeros dropped (shared parallel helper, also used by
    // SpgemmPlan); filter once and dispatch structurally.
    MaskedSpgemmOptions structural = opt;
    structural.mask_semantics = MaskSemantics::kStructural;
    return masked_multiply<SR>(a, b, drop_explicit_zeros(m), structural);
  }
  const bool complemented = opt.mask_kind == MaskKind::kComplement;
  if (complemented && opt.algorithm == MaskedAlgorithm::kMca) {
    // Must be rejected before the parallel region: exceptions cannot cross
    // an OpenMP boundary, and the kernel constructor runs per thread.
    throw invalid_argument_error("MCA does not support complemented masks");
  }

  if (opt.algorithm == MaskedAlgorithm::kInner) {
    // The pull-based kernel wants B's columns contiguous; transpose once
    // here (the dispatcher-level cost the paper notes for dot-based codes).
    const CscMatrix<IT, VT> b_csc = csr_to_csc(b);
    return masked_multiply_inner<SR>(a, b_csc, m, opt);
  }

  const std::vector<std::int64_t> flops = row_flops(a, b);
  auto run = [&](auto make_kernel) {
    return detail::run_planless<IT, VT>(m, b.ncols, flops, opt, make_kernel);
  };
  switch (opt.algorithm) {
    case MaskedAlgorithm::kMsa:
      return run([&](int) {
        return MsaKernel<SR, IT, VT, MT>(a, b, m, complemented);
      });
    case MaskedAlgorithm::kHash:
      return run([&](int) {
        return HashKernel<SR, IT, VT, MT>(a, b, m, complemented);
      });
    case MaskedAlgorithm::kMca:
      return run([&](int) {
        return McaKernel<SR, IT, VT, MT>(a, b, m, complemented);
      });
    case MaskedAlgorithm::kHeap:
    case MaskedAlgorithm::kHeapDot: {
      const long fallback =
          opt.algorithm == MaskedAlgorithm::kHeap ? 1 : kInspectAll;
      const long inspect =
          opt.heap_n_inspect >= 0 ? opt.heap_n_inspect : fallback;
      return run([&, inspect](int) {
        return HeapKernel<SR, IT, VT, MT>(a, b, m, complemented, inspect);
      });
    }
    case MaskedAlgorithm::kAdaptive: {
      using K = AdaptiveKernel<SR, IT, VT, MT>;
      return run([&](int) {
        return K(a, b, m, complemented,
                 typename K::Policy{.table = opt.route_table});
      });
    }
    case MaskedAlgorithm::kInner:
      break;  // handled above
  }
  throw invalid_argument_error("masked_multiply: unknown algorithm");
}

}  // namespace msp
