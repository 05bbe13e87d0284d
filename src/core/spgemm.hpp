// Plain (unmasked) SpGEMM — Gustavson's row-by-row algorithm (paper Alg. 1)
// with a hash accumulator, executed as the conventional two-phase
// symbolic+numeric pipeline. This is both a substrate (the "multiply then
// mask" baseline builds on it) and the reference point the paper contrasts
// masked execution against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "matrix/csr.hpp"
#include "semiring/semiring.hpp"
#include "util/common.hpp"
#include "util/prefix_sum.hpp"

namespace msp {

namespace detail {

/// Epoch-stamped open-addressing hash map used per thread by plain SpGEMM.
/// Grows between rows only (next_pow2(4·row_upper_bound) before each row).
template <class IT, class VT>
class SpgemmHashMap {
 public:
  void begin_row(std::size_t max_keys) {
    const std::size_t needed =
        next_pow2(std::max<std::size_t>(4 * std::max<std::size_t>(max_keys, 1),
                                        16));
    if (slots_.size() < needed) {
      slots_.assign(needed, Slot{});
      epoch_ = 0;
    }
    ++epoch_;
    mask_ = slots_.size() - 1;
    keys_.clear();
  }

  /// Insert or accumulate; `Add` merges with an existing value.
  template <class Add>
  void upsert(IT key, VT value, Add add) {
    std::size_t idx = hash_key(key) & mask_;
    for (;;) {
      Slot& s = slots_[idx];
      if (s.epoch != epoch_) {
        s.key = key;
        s.epoch = epoch_;
        s.value = value;
        keys_.push_back(key);
        return;
      }
      if (s.key == key) {
        s.value = add(s.value, value);
        return;
      }
      idx = (idx + 1) & mask_;
    }
  }

  /// Insert key if absent (symbolic pass).
  void insert_key(IT key) {
    std::size_t idx = hash_key(key) & mask_;
    for (;;) {
      Slot& s = slots_[idx];
      if (s.epoch != epoch_) {
        s.key = key;
        s.epoch = epoch_;
        keys_.push_back(key);
        return;
      }
      if (s.key == key) return;
      idx = (idx + 1) & mask_;
    }
  }

  [[nodiscard]] VT lookup(IT key) const {
    std::size_t idx = hash_key(key) & mask_;
    for (;;) {
      const Slot& s = slots_[idx];
      MSP_ASSERT(s.epoch == epoch_);
      if (s.key == key) return s.value;
      idx = (idx + 1) & mask_;
    }
  }

  [[nodiscard]] std::vector<IT>& keys() { return keys_; }

 private:
  struct Slot {
    IT key = 0;
    std::uint32_t epoch = 0;
    VT value{};
  };
  static std::size_t hash_key(IT key) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >> 32);
  }
  std::vector<Slot> slots_;
  std::vector<IT> keys_;
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 0;
};

}  // namespace detail

/// C = A·B on semiring SR. Row-parallel two-phase hash SpGEMM; output rows
/// are sorted.
template <Semiring SR, class IT, class VT>
CsrMatrix<IT, VT> multiply(const CsrMatrix<IT, VT>& a,
                           const CsrMatrix<IT, VT>& b) {
  if (a.ncols != b.nrows) {
    throw invalid_argument_error("multiply: inner dimension mismatch");
  }
  const IT nrows = a.nrows;
  std::vector<IT> counts(static_cast<std::size_t>(nrows), 0);

  // Symbolic: distinct column count per output row.
#pragma omp parallel
  {
    detail::SpgemmHashMap<IT, VT> map;
#pragma omp for schedule(dynamic, 64)
    for (IT i = 0; i < nrows; ++i) {
      std::size_t flops = 0;
      for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
        const IT k = a.colids[p];
        flops += static_cast<std::size_t>(b.rowptr[k + 1] - b.rowptr[k]);
      }
      map.begin_row(std::min<std::size_t>(
          flops, static_cast<std::size_t>(b.ncols)));
      for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
        const IT k = a.colids[p];
        for (IT q = b.rowptr[k]; q < b.rowptr[k + 1]; ++q) {
          map.insert_key(b.colids[q]);
        }
      }
      counts[static_cast<std::size_t>(i)] =
          static_cast<IT>(map.keys().size());
    }
  }

  const IT total = exclusive_prefix_sum(counts);
  CsrMatrix<IT, VT> out(nrows, b.ncols);
  out.colids.resize(static_cast<std::size_t>(total));
  out.values.resize(static_cast<std::size_t>(total));
  for (IT i = 0; i < nrows; ++i) out.rowptr[i] = counts[i];
  out.rowptr[nrows] = total;

  // Numeric: accumulate, then sort keys and gather.
#pragma omp parallel
  {
    detail::SpgemmHashMap<IT, VT> map;
#pragma omp for schedule(dynamic, 64)
    for (IT i = 0; i < nrows; ++i) {
      const IT row_size = out.rowptr[i + 1] - out.rowptr[i];
      if (row_size == 0) continue;
      map.begin_row(static_cast<std::size_t>(row_size));
      for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
        const IT k = a.colids[p];
        const VT av = a.values[p];
        for (IT q = b.rowptr[k]; q < b.rowptr[k + 1]; ++q) {
          map.upsert(b.colids[q], SR::multiply(av, b.values[q]),
                     [](VT x, VT y) { return SR::add(x, y); });
        }
      }
      auto& keys = map.keys();
      std::sort(keys.begin(), keys.end());
      std::size_t pos = static_cast<std::size_t>(out.rowptr[i]);
      for (IT key : keys) {
        out.colids[pos] = key;
        out.values[pos] = map.lookup(key);
        ++pos;
      }
    }
  }
  MSP_ASSERT(out.check_structure());
  return out;
}

}  // namespace msp
