// Kernel-level unit tests: the accumulator state machines (paper Figs. 3/5)
// exercised directly through the row-kernel interface on handcrafted
// matrices, plus adversarial stress (hash collisions, long probe chains,
// repeated reuse across rows) that whole-matrix tests are unlikely to hit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/baseline.hpp"
#include "core/hash_accumulator.hpp"
#include "core/heap_kernel.hpp"
#include "core/inner_kernel.hpp"
#include "core/mca_accumulator.hpp"
#include "core/masked_spgemm.hpp"
#include "core/msa_accumulator.hpp"
#include "matrix/convert.hpp"
#include "matrix/dense.hpp"
#include "semiring/semiring.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;
using SR = PlusTimes<VT>;
using msp::testing::random_csr;

struct Fixture {
  CsrMatrix<IT, VT> a;
  CsrMatrix<IT, VT> b;
  CsrMatrix<IT, VT> m;
};

/// u = row 0 of A selects three rows of B that all hit column 2, so the
/// accumulator must take ALLOWED → SET → SET (+ accumulate) transitions.
Fixture accumulation_fixture() {
  Fixture f;
  CooMatrix<IT, VT> a(1, 4);
  a.push(0, 0, 2.0);
  a.push(0, 1, 3.0);
  a.push(0, 3, 5.0);
  f.a = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(4, 5);
  b.push(0, 2, 1.0);  // 2*1
  b.push(1, 2, 1.0);  // 3*1
  b.push(3, 2, 1.0);  // 5*1  -> (0,2) = 10
  b.push(0, 0, 7.0);  // (0,0) = 14, masked out
  b.push(1, 4, 1.0);  // (0,4) = 3, allowed
  f.b = coo_to_csr(std::move(b));
  CooMatrix<IT, VT> m(1, 5);
  m.push(0, 1, 1.0);  // allowed but never produced
  m.push(0, 2, 1.0);
  m.push(0, 4, 1.0);
  f.m = coo_to_csr(std::move(m));
  return f;
}

template <class Kernel>
void check_accumulation_fixture() {
  const Fixture f = accumulation_fixture();
  Kernel kernel(f.a, f.b, f.m, /*complemented=*/false);
  std::vector<IT> cols(8);
  std::vector<VT> vals(8);
  const IT cnt = kernel.numeric_row(0, cols.data(), vals.data());
  ASSERT_EQ(cnt, 2);
  EXPECT_EQ(cols[0], 2);
  EXPECT_DOUBLE_EQ(vals[0], 10.0);  // three inserts accumulated
  EXPECT_EQ(cols[1], 4);
  EXPECT_DOUBLE_EQ(vals[1], 3.0);
  // Symbolic must agree and kernel must be reusable for the same row.
  EXPECT_EQ(kernel.symbolic_row(0), 2);
  const IT cnt2 = kernel.numeric_row(0, cols.data(), vals.data());
  EXPECT_EQ(cnt2, 2);
  EXPECT_DOUBLE_EQ(vals[0], 10.0);
}

TEST(MsaKernel, StateMachineAccumulates) {
  check_accumulation_fixture<MsaKernel<SR, IT, VT, VT>>();
}
TEST(HashKernel, StateMachineAccumulates) {
  check_accumulation_fixture<HashKernel<SR, IT, VT, VT>>();
}
TEST(McaKernel, StateMachineAccumulates) {
  check_accumulation_fixture<McaKernel<SR, IT, VT, VT>>();
}
TEST(HeapKernel, StateMachineAccumulates) {
  check_accumulation_fixture<HeapKernel<SR, IT, VT, VT>>();
}

TEST(InnerKernel, StateMachineAccumulates) {
  const Fixture f = accumulation_fixture();
  const CscMatrix<IT, VT> b_csc = csr_to_csc(f.b);
  InnerKernel<SR, IT, VT, VT> kernel(f.a, b_csc, f.m, false);
  std::vector<IT> cols(8);
  std::vector<VT> vals(8);
  const IT cnt = kernel.numeric_row(0, cols.data(), vals.data());
  ASSERT_EQ(cnt, 2);
  EXPECT_DOUBLE_EQ(vals[0], 10.0);
  EXPECT_DOUBLE_EQ(vals[1], 3.0);
  EXPECT_EQ(kernel.symbolic_row(0), 2);
}

/// Kernels must fully reset between rows: row 1 is empty in A, so even
/// though the mask admits everything, no stale state may leak from row 0.
template <class Kernel>
void check_reset_between_rows() {
  CooMatrix<IT, VT> a(2, 2);
  a.push(0, 0, 1.0);
  auto am = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(2, 2);
  b.push(0, 0, 1.0);
  b.push(0, 1, 1.0);
  auto bm = coo_to_csr(std::move(b));
  CooMatrix<IT, VT> m(2, 2);
  m.push(0, 0, 1.0);
  m.push(0, 1, 1.0);
  m.push(1, 0, 1.0);
  m.push(1, 1, 1.0);
  auto mm = coo_to_csr(std::move(m));
  Kernel kernel(am, bm, mm, false);
  std::vector<IT> cols(4);
  std::vector<VT> vals(4);
  EXPECT_EQ(kernel.numeric_row(0, cols.data(), vals.data()), 2);
  EXPECT_EQ(kernel.numeric_row(1, cols.data(), vals.data()), 0);
  EXPECT_EQ(kernel.symbolic_row(1), 0);
}

TEST(MsaKernel, ResetsBetweenRows) {
  check_reset_between_rows<MsaKernel<SR, IT, VT, VT>>();
}
TEST(HashKernel, ResetsBetweenRows) {
  check_reset_between_rows<HashKernel<SR, IT, VT, VT>>();
}
TEST(McaKernel, ResetsBetweenRows) {
  check_reset_between_rows<McaKernel<SR, IT, VT, VT>>();
}
TEST(HeapKernel, ResetsBetweenRows) {
  check_reset_between_rows<HeapKernel<SR, IT, VT, VT>>();
}

/// Hash stress: mask keys chosen to collide heavily under multiplicative
/// hashing into a small table (all keys share low-order structure), with a
/// mask large enough to force several table growths across rows.
TEST(HashKernel, CollisionAndGrowthStress) {
  const IT n = 4096;
  const IT stride = 64;  // keys 0, 64, 128, ... stress one hash bucket range
  CooMatrix<IT, VT> m(3, n);
  for (IT j = 0; j < n; j += stride) {
    m.push(0, j, 1.0);
    m.push(2, j, 1.0);
  }
  m.push(1, 0, 1.0);  // tiny row between big ones: growth then shrink usage
  auto mm = coo_to_csr(std::move(m));
  CooMatrix<IT, VT> a(3, 1);
  for (IT i = 0; i < 3; ++i) a.push(i, 0, 1.0);
  auto am = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(1, n);
  for (IT j = 0; j < n; j += 2 * stride) b.push(0, j, 2.0);
  auto bm = coo_to_csr(std::move(b));

  HashKernel<SR, IT, VT, VT> kernel(am, bm, mm, false);
  std::vector<IT> cols(static_cast<std::size_t>(n));
  std::vector<VT> vals(static_cast<std::size_t>(n));
  const IT c0 = kernel.numeric_row(0, cols.data(), vals.data());
  EXPECT_EQ(c0, n / (2 * stride));
  for (IT p = 0; p < c0; ++p) {
    EXPECT_EQ(cols[p] % (2 * stride), 0);
    EXPECT_DOUBLE_EQ(vals[p], 2.0);
  }
  EXPECT_EQ(kernel.numeric_row(1, cols.data(), vals.data()), 1);
  EXPECT_EQ(kernel.numeric_row(2, cols.data(), vals.data()), n / (2 * stride));
}

/// The heap kernel's NInspect settings are performance knobs only: results
/// must be identical for 0, 1, and ∞ on random inputs.
TEST(HeapKernel, NInspectSettingsAgree) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto a = random_csr<IT, VT>(24, 24, 0.2, seed);
    const auto b = random_csr<IT, VT>(24, 24, 0.2, seed + 50);
    const auto m = random_csr<IT, VT>(24, 24, 0.3, seed + 99);
    const auto expected = reference_masked_multiply<SR>(a, b, m, false);
    for (long inspect : {0L, 1L, 2L, 7L, kInspectAll}) {
      MaskedSpgemmOptions opt;
      opt.algorithm = MaskedAlgorithm::kHeap;
      opt.heap_n_inspect = inspect;
      const auto actual = masked_multiply<SR>(a, b, m, opt);
      EXPECT_TRUE(msp::testing::csr_equal(expected, actual))
          << "NInspect=" << inspect << " seed " << seed;
    }
  }
}

/// Complemented MSA/Hash: epoch-stamp reuse across many rows must never
/// leak state (a row count larger than 2^8 would expose 8-bit epochs, and
/// alternating full/empty rows exposes missed resets).
template <class Kernel>
void check_complement_epoch_reuse() {
  const IT n = 16;
  const IT rows = 600;
  CooMatrix<IT, VT> a(rows, 2);
  CooMatrix<IT, VT> m(rows, n);
  for (IT i = 0; i < rows; ++i) {
    if (i % 2 == 0) a.push(i, 0, 1.0);
    // Mask forbids even columns on every row.
    for (IT j = 0; j < n; j += 2) m.push(i, j, 1.0);
  }
  auto am = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(2, n);
  for (IT j = 0; j < n; ++j) b.push(0, j, 1.0);
  auto bm = coo_to_csr(std::move(b));
  auto mm = coo_to_csr(std::move(m));
  Kernel kernel(am, bm, mm, /*complemented=*/true);
  std::vector<IT> cols(static_cast<std::size_t>(n));
  std::vector<VT> vals(static_cast<std::size_t>(n));
  for (IT i = 0; i < rows; ++i) {
    const IT cnt = kernel.numeric_row(i, cols.data(), vals.data());
    if (i % 2 == 0) {
      ASSERT_EQ(cnt, n / 2) << "row " << i;
      for (IT p = 0; p < cnt; ++p) EXPECT_EQ(cols[p] % 2, 1);
    } else {
      ASSERT_EQ(cnt, 0) << "row " << i;
    }
  }
}

TEST(MsaKernel, ComplementEpochReuse) {
  check_complement_epoch_reuse<MsaKernel<SR, IT, VT, VT>>();
}
TEST(HashKernel, ComplementEpochReuse) {
  check_complement_epoch_reuse<HashKernel<SR, IT, VT, VT>>();
}

/// Exact bitwise comparison (csr_equal compares values with ==, under
/// which -0.0 equals +0.0).
template <class I>
::testing::AssertionResult bit_identical(const CsrMatrix<I, VT>& expected,
                                         const CsrMatrix<I, VT>& actual) {
  auto same = msp::testing::csr_equal(expected, actual);
  if (!same) return same;
  for (std::size_t p = 0; p < expected.values.size(); ++p) {
    if (std::signbit(expected.values[p]) != std::signbit(actual.values[p])) {
      return ::testing::AssertionFailure()
             << "value slot " << p << ": sign of zero differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The plain MSA paths scan each B row in fixed chunks of admit filtering:
/// rows of length 0, 1, 255, 256, 257 and 3*256+17 straddle every chunk
/// boundary case, under mask rows that admit no visited column, every
/// other column, and every column. Products that land on one column come
/// from several B rows with values (1e16, 1.0, -1e16) whose sum depends on
/// the order they are added, and some products are -0.0, so the checks
/// compare bits against the dot-product oracle.
template <class I>
void check_long_rows_across_chunks() {
  const std::vector<I> lens = {0, 1, 255, 256, 257, 3 * 256 + 17};
  const I nb = static_cast<I>(lens.size());
  const I n = 3 * 256 + 17 + nb + 8;  // last column is never visited
  const VT pattern[] = {1e16, 1.0, -1e16, 0.0};
  CooMatrix<I, VT> b(nb, n);
  for (I r = 0; r < nb; ++r) {
    for (I q = 0; q < lens[static_cast<std::size_t>(r)]; ++q) {
      b.push(r, r + q, pattern[static_cast<std::size_t>((2 * r + q) % 4)]);
    }
  }
  const auto bm = coo_to_csr(std::move(b));
  // A row 0 visits every B row, row 1 the long rows only, and row 2 the
  // longest row scaled by -1.0 (so its 0.0 entries give -0.0 products).
  CooMatrix<I, VT> a(3, nb);
  for (I k = 0; k < nb; ++k) a.push(0, k, 1.0);
  for (I k = 3; k < nb; ++k) a.push(1, k, 1.0);
  a.push(2, nb - 1, -1.0);
  const auto am = coo_to_csr(std::move(a));

  enum Admit { kNone, kEveryOther, kAll };
  for (Admit admit : {kNone, kEveryOther, kAll}) {
    CooMatrix<I, VT> m(3, n);
    for (I i = 0; i < 3; ++i) {
      if (admit == kNone) m.push(i, n - 1, 1.0);
      for (I j = 0; admit != kNone && j < n; j += admit == kAll ? 1 : 2) {
        m.push(i, j, 1.0);
      }
    }
    const auto mm = coo_to_csr(std::move(m));
    const auto expected = baseline_dot<SR>(am, bm, mm);
    if (admit == kAll) {
      // The fixture must exercise what it claims: a -0.0 output, and an
      // output whose value changes if its products are summed in reverse.
      bool neg_zero = false;
      for (VT v : expected.values) neg_zero |= v == 0.0 && std::signbit(v);
      EXPECT_TRUE(neg_zero);
      const auto ref = to_dense(bm);
      bool order_sensitive = false;
      for (std::size_t j = 0; j < ref.ncols; ++j) {
        VT fwd = 0.0, rev = 0.0;
        for (std::size_t k = 0; k < ref.nrows; ++k) fwd += ref.at(k, j);
        for (std::size_t k = ref.nrows; k-- > 0;) rev += ref.at(k, j);
        order_sensitive |= fwd != rev;
      }
      EXPECT_TRUE(order_sensitive);
    }
    for (MaskedPhase phase : {MaskedPhase::kOnePhase, MaskedPhase::kTwoPhase}) {
      MaskedSpgemmOptions opt;
      opt.algorithm = MaskedAlgorithm::kMsa;
      opt.phase = phase;
      EXPECT_TRUE(bit_identical(expected, masked_multiply<SR>(am, bm, mm, opt)))
          << "admit " << admit << " phase " << static_cast<int>(phase);
    }
    MsaKernel<SR, I, VT, VT> kernel(am, bm, mm, /*complemented=*/false);
    for (I i = 0; i < 3; ++i) {
      EXPECT_EQ(kernel.symbolic_row(i),
                expected.rowptr[i + 1] - expected.rowptr[i])
          << "admit " << admit << " row " << i;
    }
  }
}

TEST(MsaKernel, LongRowsAcrossFilterChunks) {
  check_long_rows_across_chunks<int>();
  check_long_rows_across_chunks<std::int64_t>();
}

TEST(McaKernel, RejectsComplement) {
  const auto a = random_csr<IT, VT>(4, 4, 0.5, 1);
  EXPECT_THROW((McaKernel<SR, IT, VT, VT>(a, a, a, true)),
               invalid_argument_error);
}

/// Lazy insert contract (paper §5.1): products whose keys are masked out
/// must be discarded — with the mask filtering applied before the value is
/// used, a semiring whose multiply would trap on masked-out pairs is safe.
TEST(MaskedKernels, MaskedOutProductsAreDiscarded) {
  // B contains a "poison" value at a masked-out column; PlusTimes would
  // propagate a NaN into the output if the kernel consumed it.
  CooMatrix<IT, VT> a(1, 1);
  a.push(0, 0, 1.0);
  auto am = coo_to_csr(std::move(a));
  CooMatrix<IT, VT> b(1, 3);
  b.push(0, 0, 1.0);
  b.push(0, 1, std::numeric_limits<VT>::quiet_NaN());
  b.push(0, 2, 3.0);
  auto bm = coo_to_csr(std::move(b));
  CooMatrix<IT, VT> m(1, 3);
  m.push(0, 0, 1.0);
  m.push(0, 2, 1.0);
  auto mm = coo_to_csr(std::move(m));
  for (MaskedAlgorithm algo :
       {MaskedAlgorithm::kMsa, MaskedAlgorithm::kHash, MaskedAlgorithm::kMca,
        MaskedAlgorithm::kHeap, MaskedAlgorithm::kHeapDot,
        MaskedAlgorithm::kInner}) {
    MaskedSpgemmOptions opt;
    opt.algorithm = algo;
    const auto c = masked_multiply<SR>(am, bm, mm, opt);
    ASSERT_EQ(c.nnz(), 2u) << algorithm_name(algo);
    EXPECT_DOUBLE_EQ(c.values[0], 1.0) << algorithm_name(algo);
    EXPECT_DOUBLE_EQ(c.values[1], 3.0) << algorithm_name(algo);
    for (VT v : c.values) EXPECT_FALSE(std::isnan(v)) << algorithm_name(algo);
  }
}

}  // namespace
}  // namespace msp
