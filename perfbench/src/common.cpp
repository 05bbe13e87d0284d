// Input generators, the independent reference path, resource probes, the
// trace writer, and the product rungs shared by every workload.
#include <unistd.h>

#include <fstream>
#include <numeric>

#include "bench.hpp"

namespace pb {

std::vector<IT> sample_rows(IT nrows, int every, Rng& rng) {
  std::vector<IT> rows;
  for (IT i = 0; i < nrows; ++i) {
    if (rng.below(static_cast<std::uint64_t>(every)) == 0) rows.push_back(i);
  }
  if (rows.empty()) rows.push_back(static_cast<IT>(rng.below(nrows)));
  return rows;
}

Csr row_subset(const Csr& g, const std::vector<IT>& rows) {
  std::vector<IT> rowptr(static_cast<std::size_t>(g.nrows) + 1, 0);
  for (IT r : rows) {
    rowptr[static_cast<std::size_t>(r) + 1] = g.rowptr[r + 1] - g.rowptr[r];
  }
  std::partial_sum(rowptr.begin(), rowptr.end(), rowptr.begin());
  std::vector<IT> colids;
  std::vector<VT> values;
  colids.reserve(static_cast<std::size_t>(rowptr.back()));
  values.reserve(static_cast<std::size_t>(rowptr.back()));
  for (IT r : rows) {
    for (IT p = g.rowptr[r]; p < g.rowptr[r + 1]; ++p) {
      colids.push_back(g.colids[p]);
      values.push_back(g.values[p]);
    }
  }
  return Csr(g.nrows, g.ncols, std::move(rowptr), std::move(colids),
             std::move(values));
}

Csr relabel_tril(const Csr& g) {
  const auto n = static_cast<std::size_t>(g.nrows);
  std::vector<IT> order(n);
  std::iota(order.begin(), order.end(), IT{0});
  auto deg = [&](IT v) { return g.rowptr[v + 1] - g.rowptr[v]; };
  std::stable_sort(order.begin(), order.end(),
                   [&](IT x, IT y) { return deg(x) > deg(y); });
  std::vector<IT> label(n);
  for (std::size_t r = 0; r < n; ++r) label[order[r]] = static_cast<IT>(r);

  std::vector<IT> rowptr(n + 1, 0);
  for (IT v = 0; v < g.nrows; ++v) {
    for (IT p = g.rowptr[v]; p < g.rowptr[v + 1]; ++p) {
      if (label[g.colids[p]] < label[v]) ++rowptr[label[v] + 1];
    }
  }
  std::partial_sum(rowptr.begin(), rowptr.end(), rowptr.begin());
  std::vector<IT> colids(static_cast<std::size_t>(rowptr.back()));
  std::vector<IT> fill(rowptr.begin(), rowptr.end() - 1);
  for (IT v = 0; v < g.nrows; ++v) {
    for (IT p = g.rowptr[v]; p < g.rowptr[v + 1]; ++p) {
      const IT u = label[g.colids[p]];
      if (u < label[v]) colids[fill[label[v]]++] = u;
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    std::sort(colids.begin() + rowptr[r], colids.begin() + rowptr[r + 1]);
  }
  std::vector<VT> values(colids.size(), VT{1});
  return Csr(g.nrows, g.ncols, std::move(rowptr), std::move(colids),
             std::move(values));
}

Csr shuffle_vertices(const Csr& g, Rng& rng) {
  const auto n = static_cast<std::size_t>(g.nrows);
  std::vector<IT> label(n);
  std::iota(label.begin(), label.end(), IT{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(label[i - 1], label[rng.below(i)]);
  }
  std::vector<IT> old_of(n);
  for (std::size_t v = 0; v < n; ++v) old_of[label[v]] = static_cast<IT>(v);
  std::vector<IT> rowptr(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const IT v = old_of[r];
    rowptr[r + 1] = rowptr[r] + (g.rowptr[v + 1] - g.rowptr[v]);
  }
  std::vector<std::pair<IT, VT>> row;
  std::vector<IT> colids(static_cast<std::size_t>(rowptr.back()));
  std::vector<VT> values(colids.size());
  for (std::size_t r = 0; r < n; ++r) {
    const IT v = old_of[r];
    row.clear();
    for (IT p = g.rowptr[v]; p < g.rowptr[v + 1]; ++p) {
      row.emplace_back(label[g.colids[p]], g.values[p]);
    }
    std::sort(row.begin(), row.end());
    for (std::size_t k = 0; k < row.size(); ++k) {
      colids[static_cast<std::size_t>(rowptr[r]) + k] = row[k].first;
      values[static_cast<std::size_t>(rowptr[r]) + k] = row[k].second;
    }
  }
  return Csr(g.nrows, g.ncols, std::move(rowptr), std::move(colids),
             std::move(values));
}

double masked_flops(const Csr& a, const Csr& b, const Csr& m) {
  double f = 0;
  for (IT i = 0; i < a.nrows; ++i) {
    if (m.rowptr[i] == m.rowptr[i + 1]) continue;
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const IT k = a.colids[p];
      f += static_cast<double>(b.rowptr[k + 1] - b.rowptr[k]);
    }
  }
  return 2.0 * f;
}

Csr gather_rows(const Csr& x, const std::vector<IT>& rows) {
  std::vector<IT> rowptr(rows.size() + 1, 0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rowptr[r + 1] = rowptr[r] + (x.rowptr[rows[r] + 1] - x.rowptr[rows[r]]);
  }
  std::vector<IT> colids;
  std::vector<VT> values;
  colids.reserve(static_cast<std::size_t>(rowptr.back()));
  values.reserve(static_cast<std::size_t>(rowptr.back()));
  for (IT r : rows) {
    colids.insert(colids.end(), x.colids.begin() + x.rowptr[r],
                  x.colids.begin() + x.rowptr[r + 1]);
    values.insert(values.end(), x.values.begin() + x.rowptr[r],
                  x.values.begin() + x.rowptr[r + 1]);
  }
  return Csr(static_cast<IT>(rows.size()), x.ncols, std::move(rowptr),
             std::move(colids), std::move(values));
}

Csr reference_compact(const Csr& a_sub, const Csr& b, const Csr& m_sub) {
  msp::Engine fresh;
  return fresh.multiply(a_sub, b).mask(m_sub).scheme(msp::Scheme::kHash1P).run();
}

Csr reference_rows(const Csr& a, const Csr& b, const Csr& m) {
  std::vector<IT> rows;
  for (IT i = 0; i < m.nrows; ++i) {
    if (m.rowptr[i] != m.rowptr[i + 1]) rows.push_back(i);
  }
  const Csr c_sub =
      reference_compact(gather_rows(a, rows), b, gather_rows(m, rows));
  const Csr empty(m.nrows, b.ncols,
                  std::vector<IT>(static_cast<std::size_t>(m.nrows) + 1, 0),
                  {}, {});
  return replace_rows(empty, rows, c_sub);
}

Csr replace_rows(const Csr& x, const std::vector<IT>& rows, const Csr& sub) {
  std::vector<IT> rowptr(static_cast<std::size_t>(x.nrows) + 1, 0);
  std::size_t k = 0;
  for (IT i = 0; i < x.nrows; ++i) {
    IT len = x.rowptr[i + 1] - x.rowptr[i];
    if (k < rows.size() && rows[k] == i) {
      len = sub.rowptr[k + 1] - sub.rowptr[k];
      ++k;
    }
    rowptr[static_cast<std::size_t>(i) + 1] =
        rowptr[static_cast<std::size_t>(i)] + len;
  }
  std::vector<IT> colids(static_cast<std::size_t>(rowptr.back()));
  std::vector<VT> values(colids.size());
  k = 0;
  for (IT i = 0; i < x.nrows; ++i) {
    const Csr* src = &x;
    IT lo = x.rowptr[i];
    IT hi = x.rowptr[i + 1];
    if (k < rows.size() && rows[k] == i) {
      src = &sub;
      lo = sub.rowptr[k];
      hi = sub.rowptr[k + 1];
      ++k;
    }
    std::copy(src->colids.begin() + lo, src->colids.begin() + hi,
              colids.begin() + rowptr[i]);
    std::copy(src->values.begin() + lo, src->values.begin() + hi,
              values.begin() + rowptr[i]);
  }
  return Csr(x.nrows, x.ncols, std::move(rowptr), std::move(colids),
             std::move(values));
}

double self_peak_rss_mb() { return pid_peak_rss_mb(static_cast<long>(::getpid())); }

double pid_peak_rss_mb(long pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

bool Tracer::write_chrome(const std::string& path, int pid) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,"
                  "\"args\":{\"layer\":\"%s\",\"phase\":\"%s\","
                  "\"query_id\":%llu,\"span_id\":%zu,\"parent\":%ld}}",
                  i == 0 ? "" : ",\n", e.layer, e.phase, e.layer, e.t0 * 1e6,
                  (e.t1 - e.t0) * 1e6, pid, e.layer, e.phase,
                  static_cast<unsigned long long>(e.op_id), i, e.parent);
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

namespace {

struct KernelRung {
  msp::Scheme scheme;
  const char* name;
};

// One warm product of every mask through the Engine builder with bound
// handles (the steady-state front door), scheme forced.
std::vector<Csr> engine_product(msp::Engine& e, const Bound& ah,
                                const Bound& bh,
                                const std::vector<Bound>& mh,
                                msp::Scheme scheme) {
  std::vector<Csr> out;
  out.reserve(mh.size());
  for (const Bound& m : mh) {
    out.push_back(e.multiply(ah, bh).mask(m).scheme(scheme).run());
  }
  return out;
}

std::vector<Csr> deref(const std::vector<const Csr*>& v) {
  std::vector<Csr> out;
  out.reserve(v.size());
  for (const Csr* c : v) out.push_back(*c);
  return out;
}

}  // namespace

void report_common(Report& rep, const std::vector<double>& setup_s,
                   double peak_rss_mb) {
  rep.metric("setup_s", median_of(setup_s), "s");
  rep.metric("peak_rss_mb", peak_rss_mb, "MB");
  rep.metric("success_rate",
             rep.attempted > 0 ? static_cast<double>(rep.attempted - rep.failed) /
                                     static_cast<double>(rep.attempted)
                               : 0.0,
             "ratio");
}

void product_rungs(Report& rep, Tracer& tr, const Csr& a, const Csr& b,
                   const std::vector<const Csr*>& masks,
                   const std::vector<const Csr*>& refs, msp::Scheme scheme,
                   double budget_s) {
  double flops = 0;
  for (const Csr* m : masks) flops += masked_flops(a, b, *m);
  const Bound ah(a);
  const Bound bh(b);
  std::vector<Bound> mh;
  for (const Csr* m : masks) mh.emplace_back(*m);
  const std::vector<Csr> want = deref(refs);

  // The first (warm-up) call of every rung is checked against the
  // references; the timed repetitions that follow are not.
  auto warm_checked = [&](msp::Engine& e, const Bound& a1, const Bound& b1,
                          const std::vector<Bound>& m1, msp::Scheme s) {
    ++rep.attempted;
    if (engine_product(e, a1, b1, m1, s) != want) {
      rep.fail("rung " + std::string(msp::scheme_name(s)) +
               ": result differs from reference");
    }
  };

  // Repetitions per rung: as many as the budget allows, at least 2, from a
  // probe of the workload's own scheme.
  double probe_s = 0;
  {
    msp::Engine e;
    warm_checked(e, ah, bh, mh, scheme);
    const double t0 = now_s();
    (void)engine_product(e, ah, bh, mh, scheme);
    probe_s = now_s() - t0;
  }
  const int reps = std::clamp(
      static_cast<int>(budget_s / (16.0 * std::max(probe_s, 1e-4))), 2, 15);
  rep.note("rung_reps", reps);

  const KernelRung kernels[] = {
      {msp::Scheme::kMsa1P, "msa1p"},   {msp::Scheme::kMsa2P, "msa2p"},
      {msp::Scheme::kHash1P, "hash1p"}, {msp::Scheme::kHash2P, "hash2p"},
      {msp::Scheme::kMca1P, "mca1p"},   {msp::Scheme::kHeap1P, "heap1p"},
      {msp::Scheme::kInner1P, "inner1p"},
  };
  auto warm_ms = [&](msp::Scheme s, int n) {
    msp::Engine e;
    warm_checked(e, ah, bh, mh, s);
    return median_ms(n, [&] { (void)engine_product(e, ah, bh, mh, s); });
  };
  double best_ms = 0;
  double msa1p_ms = 0;
  double hash1p_ms = 0;
  for (const KernelRung& k : kernels) {
    const auto span = tr.span("kernels", k.name);
    const double ms = warm_ms(k.scheme, reps);
    rep.metric(std::string("kernels.") + k.name + "_gflops",
               flops / (ms * 1e-3) / 1e9, "GFLOP/s");
    if (best_ms == 0 || ms < best_ms) best_ms = ms;
    if (k.scheme == msp::Scheme::kMsa1P) msa1p_ms = ms;
    if (k.scheme == msp::Scheme::kHash1P) hash1p_ms = ms;
  }
  {
    const auto span = tr.span("engine", "auto");
    rep.metric("engine.auto_over_best",
               warm_ms(msp::Scheme::kAuto, reps) / best_ms, "ratio");
  }
  {
    const int p = default_threads();
    const ThreadScope one(1);
    const int reps1 = std::max(1, reps / 3);
    const auto span = tr.span("drivers", "one_thread");
    const double msa1 = warm_ms(msp::Scheme::kMsa1P, reps1);
    const double hash1 = warm_ms(msp::Scheme::kHash1P, reps1);
    rep.metric("drivers.msa1p_par_eff", msa1 / (p * msa1p_ms), "ratio");
    rep.metric("drivers.hash1p_par_eff", hash1 / (p * hash1p_ms), "ratio");
  }
  {
    // Cold: a fresh Engine and fresh handles, so the first call plans and
    // fingerprints from scratch; warm: the same call again.
    const auto span = tr.span("plan", "cold_minus_warm");
    std::vector<double> delta;
    for (int r = 0; r < std::max(2, reps / 2); ++r) {
      msp::Engine e;
      const Bound a2(a);
      const Bound b2(b);
      std::vector<Bound> m2;
      for (const Csr* m : masks) m2.emplace_back(*m);
      double c0 = now_s();
      (void)engine_product(e, a2, b2, m2, scheme);
      const double cold = now_s() - c0;
      c0 = now_s();
      (void)engine_product(e, a2, b2, m2, scheme);
      delta.push_back((cold - (now_s() - c0)) * 1e3);
    }
    rep.metric("plan.build_ms", median_of(delta), "ms");
  }
}

}  // namespace pb
