// Adaptive (hybrid) row kernel — the paper's future-work direction (§9):
// "hybrid algorithms that can use different accumulators in the same Masked
// SpGEMM depending on the density of the mask and parts of matrices being
// processed".
//
// Every row is routed to the accumulator the paper's Figure 7 regions
// predict to win, using only O(nnz(A(i,:)))-cost per-row statistics:
//
//   flops(i) = Σ_{k∈A(i,:)} nnz(B(k,:)) — the push work for the row —
//   compared against nnz(M(i,:)), the mask budget:
//
//   * flops(i) ≪ nnz(M(i,:))   → Heap: the multiset S is tiny, the heap
//     streams it in O(log nnz(u) · flops) without touching accumulators.
//   * otherwise, comparable     → MSA while the dense state array stays
//     cache-resident (small ncols), Hash beyond that (paper §8.1: "MSA on
//     smaller matrices and Hash on larger ones").
//
// When an SpgemmPlan is in play, its precomputed per-row flops are handed in
// through `row_flops` and the routing decision becomes a single comparison —
// no rescan of A's row against B's row pointers.
//
// The pull-based Inner kernel is not a candidate here because it needs B in
// CSC; a row-level hybrid must work from a single storage format.
#pragma once

#include <cstdint>
#include <memory>

#include "core/config.hpp"
#include "core/hash_accumulator.hpp"
#include "core/heap_kernel.hpp"
#include "core/msa_accumulator.hpp"
#include "matrix/csr.hpp"
#include "semiring/semiring.hpp"

namespace msp {

template <Semiring SR, class IT, class VT, class MT>
class AdaptiveKernel {
 public:
  /// Tuning knobs for the per-row routing heuristic. The two heuristic
  /// knobs serve only explicit MaskedAlgorithm::kAdaptive requests with no
  /// table (e.g. the hybrid ablation): Scheme::kAuto always arrives with a
  /// route table from tuner::resolve_auto, which never routes Heap under a
  /// complemented mask, so kAuto never reaches them.
  struct Policy {
    /// Route to Heap when flops(i) * heap_flops_factor <= nnz(M(i,:)).
    long heap_flops_factor = 4;
    /// Use MSA (dense states) while ncols(B) <= msa_max_ncols, else Hash.
    IT msa_max_ncols = IT{1} << 15;
    /// Calibrated per-flops-bin routing (core/tuner.hpp). When set it
    /// replaces the two heuristics above: each row is routed by
    /// table->route[flops_bin(flops(i))]. A Heap entry under a
    /// complemented mask falls back to the MSA/Hash ncols pick. The table
    /// must outlive the kernel; it is only read.
    const AdaptiveRouteTable* table = nullptr;
  };

  /// Combined scratch of the three candidate kernels, borrowable from an
  /// ExecutionContext as one unit.
  struct Scratch {
    typename MsaKernel<SR, IT, VT, MT>::Scratch msa;
    typename HashKernel<SR, IT, VT, MT>::Scratch hash;
    typename HeapKernel<SR, IT, VT, MT>::Scratch heap;
  };

  AdaptiveKernel(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                 const CsrMatrix<IT, MT>& m, bool complemented,
                 Policy policy = {}, const std::int64_t* row_flops = nullptr,
                 Scratch* scratch = nullptr)
      : a_(a),
        b_(b),
        m_(m),
        complemented_(complemented),
        policy_(policy),
        flops_(row_flops),
        use_msa_(b.ncols <= policy.msa_max_ncols),
        owned_(scratch == nullptr ? std::make_unique<Scratch>() : nullptr),
        s_(scratch == nullptr ? owned_.get() : scratch),
        msa_(a, b, m, complemented, &s_->msa),
        hash_(a, b, m, complemented, &s_->hash),
        heap_(a, b, m, complemented, /*n_inspect=*/1, &s_->heap) {}

  IT numeric_row(IT i, IT* out_cols, VT* out_vals) {
    switch (route(i)) {
      case Route::kHeap: return heap_.numeric_row(i, out_cols, out_vals);
      case Route::kMsa: return msa_.numeric_row(i, out_cols, out_vals);
      case Route::kHash: return hash_.numeric_row(i, out_cols, out_vals);
    }
    return 0;
  }

  IT symbolic_row(IT i) {
    switch (route(i)) {
      case Route::kHeap: return heap_.symbolic_row(i);
      case Route::kMsa: return msa_.symbolic_row(i);
      case Route::kHash: return hash_.symbolic_row(i);
    }
    return 0;
  }

 private:
  enum class Route { kHeap, kMsa, kHash };

  Route route(IT i) const {
    if (policy_.table != nullptr) {
      std::int64_t f;
      if (flops_ != nullptr) {
        f = flops_[static_cast<std::size_t>(i)];
      } else {
        f = 0;
        for (IT p = a_.rowptr[i]; p < a_.rowptr[i + 1]; ++p) {
          const IT k = a_.colids[p];
          f += static_cast<std::int64_t>(b_.rowptr[k + 1] - b_.rowptr[k]);
        }
      }
      switch (policy_.table->route[static_cast<std::size_t>(flops_bin(f))]) {
        case RowAlgo::kMsa: return Route::kMsa;
        case RowAlgo::kHash: return Route::kHash;
        case RowAlgo::kHeap:
          if (!complemented_) return Route::kHeap;
          break;  // Heap has no complement shortcut: fall through below.
      }
      return use_msa_ ? Route::kMsa : Route::kHash;
    }
    // Complemented masks: the heap's NInspect optimization is unavailable
    // (paper §5.5) and its set-difference pass offers no shortcut, so only
    // the MSA/Hash choice remains.
    if (!complemented_) {
      const long mask_nnz = static_cast<long>(m_.row_nnz(i));
      if (flops_ != nullptr) {
        // Plan-supplied flops: the routing test collapses to one compare.
        const std::int64_t f = flops_[static_cast<std::size_t>(i)];
        if (f * policy_.heap_flops_factor <= mask_nnz) return Route::kHeap;
      } else {
        long flops = 0;
        for (IT p = a_.rowptr[i]; p < a_.rowptr[i + 1]; ++p) {
          const IT k = a_.colids[p];
          flops += static_cast<long>(b_.rowptr[k + 1] - b_.rowptr[k]);
          if (flops * policy_.heap_flops_factor > mask_nnz) break;  // settled
        }
        if (flops * policy_.heap_flops_factor <= mask_nnz) return Route::kHeap;
      }
    }
    return use_msa_ ? Route::kMsa : Route::kHash;
  }

  const CsrMatrix<IT, VT>& a_;
  const CsrMatrix<IT, VT>& b_;
  const CsrMatrix<IT, MT>& m_;
  const bool complemented_;
  const Policy policy_;
  const std::int64_t* flops_;
  const bool use_msa_;

  std::unique_ptr<Scratch> owned_;
  Scratch* s_;

  MsaKernel<SR, IT, VT, MT> msa_;
  HashKernel<SR, IT, VT, MT> hash_;
  HeapKernel<SR, IT, VT, MT> heap_;
};

}  // namespace msp
