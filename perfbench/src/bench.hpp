// Shared pieces of the repository benchmark: options, the metric report,
// closed-loop latency measurement, the in-memory span recorder, input
// generators, and the independent reference path used by the correctness
// gate. Every call into the library goes through the entry points that
// README.md lists (Engine builder, update, TiledEngine,
// ShardStore/ShardedMatrix, serve::Coordinator, DeltaMatrix, the R-MAT
// generator and core/baseline.hpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/baseline.hpp"
#include "core/engine.hpp"
#include "gen/rmat.hpp"
#include "matrix/csr.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace pb {

using IT = msp::index_t;
using VT = double;
using Csr = msp::CsrMatrix<IT, VT>;
using Bound = msp::BoundMatrix<IT, VT>;
using SR = msp::PlusTimes<VT>;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The traced run measures a fixed amount of work, whatever --seconds says,
// so that it stays well inside the per-run time limit.
inline constexpr double kTraceSeconds = 10.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_bin;  // mspgemm-serve, for the serve rungs
  std::string trace_path;  // Chrome trace-event JSON written at exit
};

// ---------------------------------------------------------------------------
// Report: metrics (name, value, unit) plus free-form notes for the sidecar.
// ---------------------------------------------------------------------------

struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  // JSON values
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    notes.emplace_back(name, buf);
  }
  void note_series(const std::string& name, const std::vector<double>& v) {
    std::string series = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.3f", i ? "," : "", v[i]);
      series += buf;
    }
    notes.emplace_back(name, series + "]");
  }
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Latency samples and the closed loop.
// ---------------------------------------------------------------------------

// Median of a small list of values.
inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank value at percentile `p` of `v`, and how many samples lie
// strictly above that rank.
inline std::pair<double, std::size_t> percentile_of(std::vector<double> v,
                                                    int p) {
  if (v.empty()) return {0.0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank =
      std::max<std::size_t>(1, (static_cast<std::size_t>(p) * n + 99) / 100);
  return {v[rank - 1], n - rank};
}

// The highest whole percentile with at least ten of `n` samples strictly
// above its nearest rank; 0 (the smallest sample) when there are ten or
// fewer.
inline int tail_percentile(std::size_t n) {
  for (int p = 100; p > 0; --p) {
    const std::size_t rank =
        std::max<std::size_t>(1, (static_cast<std::size_t>(p) * n + 99) / 100);
    if (n >= rank + 10) return p;
  }
  return 0;
}

struct Latencies {
  std::vector<double> ms;
  double timed_s = 0;  // sum of op intervals (bookkeeping excluded)
  double wall_s = 0;   // the whole loop, bookkeeping included

  [[nodiscard]] double median() const { return median_of(ms); }

  // The samples in order, cut into max(1, n / size) blocks of consecutive
  // ops whose sizes differ by at most one.
  [[nodiscard]] std::vector<std::vector<double>> blocks(std::size_t size) const {
    const std::size_t n = ms.size();
    const std::size_t k = std::max<std::size_t>(1, n / size);
    std::vector<std::vector<double>> out;
    for (std::size_t b = 0; b < k; ++b) {
      out.emplace_back(ms.begin() + static_cast<std::ptrdiff_t>(b * n / k),
                       ms.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / k));
    }
    return out;
  }
};

// Runs op `i` once and appends its latency to `lat`. `prep(i)` (input
// generation) and `verify(i, result)` (the correctness gate) run outside
// the op interval. A throwing op or a failed check counts against
// `rep.failed`.
template <class Prep, class Run, class Verify>
void timed_op(Report& rep, Latencies& lat, int i, Prep&& prep, Run&& run,
              Verify&& verify) {
  prep(i);
  ++rep.attempted;
  const double t0 = now_s();
  try {
    auto result = run(i);
    const double dt = now_s() - t0;
    lat.timed_s += dt;
    lat.ms.push_back(dt * 1e3);
    if (!verify(i, result)) {
      rep.fail("op " + std::to_string(i) + ": result differs from reference");
    }
  } catch (const std::exception& e) {
    lat.timed_s += now_s() - t0;
    rep.fail("op " + std::to_string(i) + " threw: " + e.what());
  }
}

// Runs `run(i)` back to back — one client, the next op starts only when the
// previous returned — until `budget_s` of op time has accumulated and at
// least `min_ops` ops ran (at most `max_ops`).
template <class Prep, class Run, class Verify>
Latencies closed_loop(Report& rep, double budget_s, int min_ops, int max_ops,
                      Prep&& prep, Run&& run, Verify&& verify) {
  Latencies lat;
  const double start = now_s();
  for (int i = 0; i < max_ops; ++i) {
    if (i >= min_ops && lat.timed_s >= budget_s) break;
    timed_op(rep, lat, i, prep, run, verify);
  }
  lat.wall_s = now_s() - start;
  return lat;
}

// setup_s, peak_rss_mb and success_rate: the end-to-end metrics that do not
// come from the op loop.
void report_common(Report& rep, const std::vector<double>& setup_s,
                   double peak_rss_mb);

// Times `fn` `reps` times; returns the median in milliseconds.
template <class Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    t.push_back((now_s() - t0) * 1e3);
  }
  return median_of(t);
}

// ---------------------------------------------------------------------------
// Threads: the benchmark sets no environment variables; the one-thread
// rungs narrow the OpenMP team in-process and restore it afterwards.
// ---------------------------------------------------------------------------

inline int default_threads() {
#ifdef _OPENMP
  static const int n = omp_get_max_threads();
  return n;
#else
  return 1;
#endif
}

class ThreadScope {
 public:
  explicit ThreadScope(int n) {
#ifdef _OPENMP
    (void)default_threads();  // latch the default before narrowing
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
  ~ThreadScope() {
#ifdef _OPENMP
    omp_set_num_threads(default_threads());
#endif
  }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;
};

// The loop metrics: ops_per_s, op_p50_ms and op_tail_ms, with the block
// and sample counts and the latency series as notes.
//
// The host's noise comes in episodes that slow a stretch of consecutive ops
// by up to 3x for seconds at a time. A mean over the run and a high
// percentile of it both follow the share of the run such episodes cover, so
// ops_per_s and op_tail_ms are taken per block of consecutive ops and
// reported as the median over the blocks, as op_p50_ms is a median over ops.
// ops_per_s: each block of about kRateBlockOps ops gives ops ÷ op time.
// op_tail_ms: each block of about kTailBlockOps ops gives its p90. A run
// with fewer than 2 × kTailBlockOps ops (tricount's main loop runs about a
// dozen) is one block, read at tail_percentile: no tail of so few samples
// survives an episode. Below 20 ops that percentile lies under the median
// (for 11 ops or fewer it is the fastest op).
inline constexpr std::size_t kRateBlockOps = 10;
inline constexpr std::size_t kTailBlockOps = 20;
inline constexpr int kTailPercentile = 90;

inline void report_loop(Report& rep, const Latencies& lat) {
  std::vector<double> rate;
  for (const std::vector<double>& b : lat.blocks(kRateBlockOps)) {
    double sum_ms = 0;
    for (double x : b) sum_ms += x;
    if (sum_ms > 0) rate.push_back(1e3 * static_cast<double>(b.size()) / sum_ms);
  }
  rep.metric("ops_per_s", median_of(rate), "1/s");
  rep.metric("op_p50_ms", lat.median(), "ms");
  std::vector<double> tail;
  std::size_t beyond = lat.ms.size();
  const std::vector<std::vector<double>> tb = lat.blocks(kTailBlockOps);
  const int pct =
      tb.size() > 1 ? kTailPercentile : tail_percentile(lat.ms.size());
  for (const std::vector<double>& b : tb) {
    const auto [value, above] = percentile_of(b, pct);
    tail.push_back(value);
    beyond = std::min(beyond, above);
  }
  rep.metric("op_tail_ms", median_of(tail), "ms");
  rep.note("op_tail_percentile", pct);
  rep.note("op_tail_blocks", static_cast<double>(tb.size()));
  rep.note("op_tail_samples_beyond", static_cast<double>(beyond));
  rep.note("op_samples", static_cast<double>(lat.ms.size()));
  rep.note("op_rate_blocks", static_cast<double>(rate.size()));
  rep.note("loop_timed_s", lat.timed_s);
  rep.note("loop_wall_s", lat.wall_s);
  rep.note_series("op_ms", lat.ms);
}

// The untraced run every workload shares. It sets up kSetups times:
// `teardown`, then a timed `setup(r)`, then `ready()` (reference work that
// is not part of set-up). Every set-up builds the same inputs but starts a
// fresh stream of op inputs, so a run never repeats an op's inputs. 60% of
// `seconds` of op time goes to the main loop (default OpenMP team) and 40%
// to the one-thread loop, at least `min_main` and `min_1t` ops. After set-up
// r, both loops run until they reach (r + 1) / kSetups of that, op by op,
// each op going to the loop further behind its share. So the two loops
// interleave and both spread over the run's whole wall time: an episode of
// host noise lands on both alike, never on one loop's stretch only.
inline constexpr int kSetups = 3;

template <class Teardown, class Setup, class Ready, class Prep, class Run,
          class Verify, class Peak>
void untraced_run(const Options& opt, Report& rep, int min_main, int min_1t,
                  Teardown&& teardown, Setup&& setup, Ready&& ready,
                  Prep&& prep, Run&& run, Verify&& verify,
                  Peak&& peak_rss_mb) {
  struct Loop {
    double budget_s;
    int min_ops;
    Latencies lat;
    double target_s = 0;
    std::size_t target_ops = 0;
    [[nodiscard]] bool done() const {
      return lat.timed_s >= target_s && lat.ms.size() >= target_ops;
    }
    [[nodiscard]] double progress() const { return lat.timed_s / budget_s; }
  };
  Loop main{0.6 * opt.seconds, min_main, {}};
  Loop one{0.4 * opt.seconds, min_1t, {}};
  auto single = [&](int i) {
    const ThreadScope t(1);
    return run(i);
  };
  std::vector<double> setup_s;
  double peak = 0;
  int i = 0;
  double loop_wall_s = 0;
  for (int r = 0; r < kSetups; ++r) {
    teardown();
    const double t0 = now_s();
    setup(r);
    setup_s.push_back(now_s() - t0);
    ready();
    for (Loop* l : {&main, &one}) {
      l->target_s = l->budget_s * (r + 1) / kSetups;
      l->target_ops = static_cast<std::size_t>(
          (l->min_ops * (r + 1) + kSetups - 1) / kSetups);
    }
    const double l0 = now_s();
    while (!main.done() || !one.done()) {
      if (one.done() || (!main.done() && main.progress() <= one.progress())) {
        timed_op(rep, main.lat, i++, prep, run, verify);
      } else {
        timed_op(rep, one.lat, i++, prep, single, verify);
      }
    }
    loop_wall_s += now_s() - l0;
    peak = std::max(peak, peak_rss_mb());
  }
  main.lat.wall_s = loop_wall_s;  // both loops, bookkeeping included
  report_loop(rep, main.lat);
  rep.metric("op_p50_1t_ms", one.lat.median(), "ms");
  rep.note_series("op_1t_ms", one.lat.ms);
  report_common(rep, setup_s, peak);
}

// ---------------------------------------------------------------------------
// Span recorder: spans live in memory and are written as Chrome trace-event
// JSON ("ph":"X" complete events, microseconds) at exit. Each span carries
// its layer (the event category), phase, op id and parent, so the file
// lines up with a later in-library trace of the same format. Off, a span
// reads no clock.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(now_s()) {}

  class Scope {
   public:
    Scope(Tracer* t, std::size_t idx) : t_(t), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }

   private:
    Tracer* t_;
    std::size_t idx_;
  };

  [[nodiscard]] Scope span(const char* layer, const char* phase,
                           std::uint64_t op_id = 0) {
    if (!on_) return Scope(nullptr, 0);
    Event e{layer, phase, op_id, now_s() - origin_, -1.0, depth_,
            stack_.empty() ? -1 : static_cast<long>(stack_.back())};
    events_.push_back(e);
    stack_.push_back(events_.size() - 1);
    ++depth_;
    return Scope(this, events_.size() - 1);
  }

  [[nodiscard]] bool on() const { return on_; }

  // Share of the "bench"/"op" spans' wall time that no child span covers.
  [[nodiscard]] double uncovered_frac() const {
    double total = 0;
    double covered = 0;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& op = events_[i];
      if (std::string(op.layer) != "bench" || std::string(op.phase) != "op") {
        continue;
      }
      total += op.t1 - op.t0;
      for (std::size_t j = i + 1;
           j < events_.size() && events_[j].depth > op.depth; ++j) {
        if (events_[j].depth == op.depth + 1) {
          covered += events_[j].t1 - events_[j].t0;
        }
      }
    }
    return total > 0 ? (total - covered) / total : 0.0;
  }

  // Median duration (ms) of spans with this layer/phase.
  [[nodiscard]] double median_span_ms(const char* layer,
                                      const char* phase) const {
    std::vector<double> d;
    for (const Event& e : events_) {
      if (std::string(e.layer) == layer && std::string(e.phase) == phase) {
        d.push_back((e.t1 - e.t0) * 1e3);
      }
    }
    return median_of(d);
  }

  bool write_chrome(const std::string& path, int pid) const;

 private:
  struct Event {
    const char* layer;
    const char* phase;
    std::uint64_t op_id;
    double t0;
    double t1;
    int depth;
    long parent;
  };

  void close(std::size_t idx) {
    events_[idx].t1 = now_s() - origin_;
    stack_.pop_back();
    --depth_;
  }

  bool on_;
  double origin_;
  int depth_ = 0;
  std::vector<Event> events_;
  std::vector<std::size_t> stack_;
};

// The traced run's op loop. Even ops run bare and odd ops inside their
// spans (`traced`), alternating so that drift hits both alike. Reports
// trace.overhead_frac (odd median ÷ even median − 1) and
// trace.uncovered_frac. `bare_ms` receives the even ops' median.
template <class Prep, class Run, class Traced, class Verify>
Latencies traced_loop(Report& rep, const Tracer& tr, double budget_s,
                      int min_ops, double& bare_ms, Prep&& prep, Run&& run,
                      Traced&& traced, Verify&& verify) {
  Latencies lat = closed_loop(
      rep, budget_s, min_ops, 1 << 20, prep,
      [&](int i) { return i % 2 ? traced(i) : run(i); }, verify);
  std::vector<double> half[2];
  for (std::size_t i = 0; i < lat.ms.size(); ++i) half[i % 2].push_back(lat.ms[i]);
  bare_ms = median_of(half[0]);
  rep.metric("trace.overhead_frac", median_of(half[1]) / bare_ms - 1.0, "ratio");
  rep.metric("trace.uncovered_frac", tr.uncovered_frac(), "ratio");
  return lat;
}

// ---------------------------------------------------------------------------
// Inputs. All randomness derives from the run's seed through SplitMix64
// streams, so the program only ever sees generated matrices and edits.
// ---------------------------------------------------------------------------

class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : s_(seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

inline Csr rmat(int scale, double edge_factor, std::uint64_t seed) {
  msp::RmatParams p;
  p.seed = seed;
  return msp::rmat_graph<IT, VT>(scale, edge_factor, p);
}

inline std::size_t csr_bytes(const Csr& m) {
  return m.rowptr.size() * sizeof(IT) + m.colids.size() * sizeof(IT) +
         m.values.size() * sizeof(VT);
}

// The same graph with its vertex ids shuffled (P·G·Pᵀ for a seeded random
// permutation P), as Graph500 scrambles R-MAT labels: the generator puts its
// hubs at the smallest ids, and unshuffled, a row window's cost depends
// mostly on whether it overlaps them.
Csr shuffle_vertices(const Csr& g, Rng& rng);

// Rows chosen independently with probability 1/`every`.
std::vector<IT> sample_rows(IT nrows, int every, Rng& rng);

// Full-size matrix holding `g`'s rows at `rows` (sorted) and empty elsewhere:
// a sparse row-subset mask.
Csr row_subset(const Csr& g, const std::vector<IT>& rows);

// Degree relabeling (non-increasing degree, ties by id) followed by the
// strictly lower triangle: the L of the paper's L ⊙ (L·L) triangle count.
Csr relabel_tril(const Csr& g);

// Multiply-add count of M ⊙ (A·B) over the rows M admits, times two (the
// conventional SpGEMM flop count), computed from the inputs.
double masked_flops(const Csr& a, const Csr& b, const Csr& m);

// Reference for C = M ⊙ (A·B) by a path independent of the workloads' own:
// only the rows where M is nonempty are compacted, multiplied with the
// Hash-1P kernel on a fresh Engine from raw operands (no workload uses
// Hash-1P, a warm plan, or this row split), and scattered back into a
// full-size result. tricount checks against core/baseline.hpp instead.
Csr reference_rows(const Csr& a, const Csr& b, const Csr& m);

// The same for rows gathered from A and M: row r of the result is
// M_sub(r,:) ⊙ (A_sub(r,:)·B).
Csr reference_compact(const Csr& a_sub, const Csr& b, const Csr& m_sub);

// Rows `rows` of `x`, in that order, as a compact matrix.
Csr gather_rows(const Csr& x, const std::vector<IT>& rows);

// Replace rows `rows` (sorted, unique) of `x` with the rows of `sub`
// (sub.nrows == rows.size()).
Csr replace_rows(const Csr& x, const std::vector<IT>& rows, const Csr& sub);

// Peak resident set of this process (MiB) and of a live child (VmHWM).
double self_peak_rss_mb();
double pid_peak_rss_mb(long pid);

// ---------------------------------------------------------------------------
// Workload entry points.
// ---------------------------------------------------------------------------

void run_tricount(const Options& opt, Report& rep, Tracer& tr);
void run_stream(const Options& opt, Report& rep, Tracer& tr);
void run_tiled(const Options& opt, Report& rep, Tracer& tr);

// The serve layer's rungs over a workload's masks (batched 8 per query) and
// their references; run from tiled-spill's traced run.
void serve_rungs(const Options& opt, Report& rep, Tracer& tr, const Csr& g,
                 const std::vector<Csr>& masks, const std::vector<Csr>& refs,
                 double budget_s);

// The rungs shared by every workload: the workload's product through a warm
// Engine with each paper kernel forced, kAuto against the best of them, the
// 1P drivers at one thread, and a cold plan build. `masks` are the op's
// masks; `scheme` is the scheme the workload runs.
// `refs` are the reference results of the masks; every rung's first output
// is checked against them.
void product_rungs(Report& rep, Tracer& tr, const Csr& a, const Csr& b,
                   const std::vector<const Csr*>& masks,
                   const std::vector<const Csr*>& refs, msp::Scheme scheme,
                   double budget_s);

}  // namespace pb
