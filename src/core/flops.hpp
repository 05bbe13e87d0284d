// Flop counting for SpGEMM — used for the one-phase upper bounds of
// complemented products and by the benchmark harness for GFLOPS metrics
// (paper reports flops(A·B)-based rates in Figs. 10 and 14).
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "util/common.hpp"

namespace msp {

namespace detail {

/// flops_i = Σ_{k : A(i,k)≠0} b_row_nnz(k), for any way of reading B's row
/// lengths.
template <class IT, class VT, class RowNnz>
std::vector<std::int64_t> row_flops_by(const CsrMatrix<IT, VT>& a,
                                       RowNnz b_row_nnz) {
  std::vector<std::int64_t> flops(static_cast<std::size_t>(a.nrows), 0);
#pragma omp parallel for schedule(dynamic, 512)
  for (IT i = 0; i < a.nrows; ++i) {
    std::int64_t f = 0;
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      f += b_row_nnz(a.colids[p]);
    }
    flops[static_cast<std::size_t>(i)] = f;
  }
  return flops;
}

}  // namespace detail

/// Per-row multiply counts of A·B: flops_i = Σ_{k : A(i,k)≠0} nnz(B(k,:)).
template <class IT, class VT>
std::vector<std::int64_t> row_flops(const CsrMatrix<IT, VT>& a,
                                    const CsrMatrix<IT, VT>& b) {
  if (a.ncols != b.nrows) {
    throw invalid_argument_error("row_flops: inner dimension mismatch");
  }
  return detail::row_flops_by(a, [&](IT k) { return b.row_nnz(k); });
}

/// The same counts with B given as its CSC transpose (the Inner kernel's
/// operand): B's row lengths are tallied from the CSC row ids first.
template <class IT, class VT>
std::vector<std::int64_t> row_flops(const CsrMatrix<IT, VT>& a,
                                    const CscMatrix<IT, VT>& b) {
  if (a.ncols != b.nrows) {
    throw invalid_argument_error("row_flops: inner dimension mismatch");
  }
  std::vector<std::int64_t> b_row_nnz(static_cast<std::size_t>(b.nrows), 0);
  for (IT r : b.rowids) ++b_row_nnz[static_cast<std::size_t>(r)];
  return detail::row_flops_by(
      a, [&](IT k) { return b_row_nnz[static_cast<std::size_t>(k)]; });
}

/// Total multiply count of A·B.
template <class IT, class VT>
std::int64_t total_flops(const CsrMatrix<IT, VT>& a,
                         const CsrMatrix<IT, VT>& b) {
  const auto per_row = row_flops(a, b);
  std::int64_t total = 0;
  for (std::int64_t f : per_row) total += f;
  return total;
}

/// Conventional SpGEMM flop metric: one multiply + one add per product pair.
template <class IT, class VT>
std::int64_t total_flops_2x(const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b) {
  return 2 * total_flops(a, b);
}

}  // namespace msp
