// The serve rungs, run from tiled-spill's traced run on its inputs: the same
// sparse row-subset masks, batched 8 per query, through mspgemm-serve with
// K=2 and K=1 worker processes (default QueryConfig, MSA-2P) and through a
// warm in-process Engine, plus the coordinator-side slice/encode and stitch
// helpers timed on the same data. No thread or wait-policy variable is set,
// so CPU contention between the worker processes shows as it is.
#include <memory>

#include "bench.hpp"
#include "core/shard.hpp"
#include "serve/serve.hpp"

namespace pb {
namespace {

constexpr std::size_t kBatch = 8;
constexpr msp::Scheme kScheme = msp::Scheme::kMsa2P;  // QueryConfig default
using Coordinator = msp::serve::Coordinator;
using Batch = std::vector<const Csr*>;

std::unique_ptr<Coordinator> start(const Options& opt, const Csr& g,
                                   int workers) {
  Coordinator::Options co;
  co.workers = workers;
  co.worker_cmd = opt.worker_bin;
  auto coord = std::make_unique<Coordinator>(co);
  coord->place(g, g, msp::ShardedMatrix<IT, VT>::balanced_ranges(g, workers));
  return coord;
}

}  // namespace

void serve_rungs(const Options& opt, Report& rep, Tracer& tr, const Csr& g,
                 const std::vector<Csr>& masks, const std::vector<Csr>& refs,
                 double budget_s) {
  if (opt.worker_bin.empty()) {
    throw std::runtime_error("the serve rungs need --worker-bin (mspgemm-serve)");
  }
  std::vector<Batch> batches(masks.size() / kBatch);
  for (std::size_t j = 0; j < batches.size() * kBatch; ++j) {
    batches[j / kBatch].push_back(&masks[j]);
  }
  std::size_t cur = 0;
  auto verify = [&](int, const std::vector<Csr>& got) {
    if (got.size() != kBatch) return false;
    for (std::size_t j = 0; j < kBatch; ++j) {
      if (!(got[j] == refs[cur * kBatch + j])) return false;
    }
    return true;
  };
  auto rung = [&](const char* phase, auto&& run) {
    const auto span = tr.span("serve", phase);
    return closed_loop(
               rep, budget_s / 3, 3 * static_cast<int>(batches.size()), 1 << 20,
               [&](int i) { cur = static_cast<std::size_t>(i) % batches.size(); },
               run, verify)
        .median();
  };
  const msp::serve::QueryConfig cfg;
  auto shutdown = [&](Coordinator& c) {
    if (!c.shutdown()) rep.fail("serve: unclean worker shutdown");
  };

  double k2_ms = 0;
  std::vector<IT> ranges;
  {
    const auto coord = start(opt, g, 2);
    for (const Batch& b : batches) (void)coord->query(b, cfg);  // warm plans
    std::vector<msp::serve::WorkerStats> w0;
    for (int k = 0; k < 2; ++k) w0.push_back(coord->worker_stats(k));
    k2_ms = rung("k2", [&](int) { return coord->query(batches[cur], cfg); });
    double hits = 0;
    double lookups = 0;
    for (int k = 0; k < 2; ++k) {
      const msp::serve::WorkerStats w1 = coord->worker_stats(k);
      const auto& before = w0[static_cast<std::size_t>(k)];
      hits += static_cast<double>(w1.plan_hits - before.plan_hits);
      lookups += static_cast<double>(w1.plan_hits - before.plan_hits +
                                     w1.plan_misses - before.plan_misses);
    }
    rep.metric("serve.worker_plan_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
               "ratio");
    rep.metric("serve.worker_restarts",
               static_cast<double>(coord->stats().worker_restarts), "count");
    ranges = coord->ranges();
    shutdown(*coord);
  }
  {
    const auto coord = start(opt, g, 1);
    for (const Batch& b : batches) (void)coord->query(b, cfg);
    const double k1_ms =
        rung("k1", [&](int) { return coord->query(batches[cur], cfg); });
    rep.metric("serve.k2_over_k1", k2_ms / k1_ms, "ratio");
    shutdown(*coord);
  }
  {
    // The same batches through a warm in-process Engine with bound handles,
    // as each worker runs them.
    msp::Engine e;
    const Bound gh(g);
    auto query = [&](int) {
      std::vector<Csr> out;
      for (const Csr* m : batches[cur]) {
        out.push_back(e.multiply(gh, gh).mask(*m).scheme(kScheme).run());
      }
      return out;
    };
    for (cur = 0; cur < batches.size(); ++cur) (void)query(0);
    const double inproc_ms = rung("inproc", query);
    rep.metric("serve.inproc_ms", inproc_ms, "ms");
    rep.metric("serve.overhead_ms", k2_ms - inproc_ms, "ms");
  }

  // Coordinator-side helpers on the same data: slice + serialize of each
  // worker's mask blocks, and the stitch of the result blocks.
  double wire_bytes = 0;
  std::vector<double> encode_ms;
  std::vector<double> stitch_ms;
  const std::size_t workers = ranges.size() - 1;
  for (std::size_t q = 0; q < batches.size(); ++q) {
    double bytes = 0;
    double t0 = now_s();
    for (std::size_t k = 0; k < workers; ++k) {
      for (const Csr* m : batches[q]) {
        bytes += static_cast<double>(
            msp::detail::serialize_shard(
                msp::slice_rows(*m, ranges[k], ranges[k + 1]))
                .size());
      }
    }
    encode_ms.push_back((now_s() - t0) * 1e3);
    std::vector<std::vector<Csr>> parts;
    for (std::size_t j = 0; j < kBatch; ++j) {
      std::vector<Csr> p;
      for (std::size_t k = 0; k < workers; ++k) {
        p.push_back(
            msp::slice_rows(refs[q * kBatch + j], ranges[k], ranges[k + 1]));
        bytes += static_cast<double>(msp::detail::serialize_shard(p.back()).size());
      }
      parts.push_back(std::move(p));
    }
    t0 = now_s();
    for (const auto& p : parts) (void)msp::stitch_row_blocks(p, g.ncols);
    stitch_ms.push_back((now_s() - t0) * 1e3);
    // Two frames (query, result) per worker, each with a header.
    wire_bytes += bytes + 2.0 * static_cast<double>(workers) *
                              sizeof(msp::serve::FrameHeader);
  }
  rep.metric("serve.slice_encode_ms", median_of(encode_ms), "ms");
  rep.metric("serve.stitch_ms", median_of(stitch_ms), "ms");
  rep.metric("serve.wire_bytes_per_query",
             wire_bytes / static_cast<double>(batches.size()), "bytes");
}

}  // namespace pb
