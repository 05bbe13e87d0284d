// Calibrated auto-tuning for Scheme::kAuto — the one model that resolves
// kAuto at every dispatch layer, with or without a measured profile.
//
// The component has three parts:
//
//  * calibrate(): a one-time per-machine microbench that times the MSA,
//    Hash, and Heap row kernels across log2 flops-per-row bins × mask
//    density ratios on synthetic Erdős-Rényi rows, and the 1P-vs-2P
//    crossover on an R-MAT graph with ER masks of swept density. The
//    result is a TuneProfile, persisted as TUNE_profile.json beside
//    BENCH_baseline.json with a schema-versioned machine fingerprint.
//
//  * decide_auto() / TunedSelector / resolve_auto(): the model-driven
//    resolution of Scheme::kAuto. Given a call's per-row flops histogram
//    it picks the phase from the measured crossover and fills an
//    AdaptiveRouteTable with the measured-cheapest accumulator per flops
//    bin. With no profile installed, resolve_auto() runs the same model
//    over an empty grid: every cell falls back to Heap / MSA up to
//    kMsaMaxCols / Hash. TunedSelector additionally refines the phase
//    crossover online from the MaskedSpgemmStats the execution layer
//    already reports.
//
//  * JSON persistence: a minimal self-contained writer/parser (the repo
//    deliberately has no JSON dependency), schema validation, and
//    fingerprint-mismatch rejection so a profile recorded on one machine
//    is never silently applied to another.
//
// Correctness is unaffected by any decision made here: every candidate
// kernel (MSA/Hash/Heap, either phase) produces sorted rows bit-identical
// to core/baseline.hpp — the conformance suite pins that — so the tuner
// only ever chooses between equally-correct executions.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/flops.hpp"
#include "core/hash_accumulator.hpp"
#include "core/heap_kernel.hpp"
#include "core/masked_spgemm.hpp"
#include "core/msa_accumulator.hpp"
#include "gen/rmat.hpp"
#include "gen/rng.hpp"
#include "matrix/csr.hpp"
#include "semiring/semiring.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace msp::tuner {

/// Schema identifier written into every profile; bumped when the layout
/// changes so stale files are rejected instead of misread.
inline constexpr const char* kTuneProfileSchema = "mspgemm-tune-profile-v1";

/// Environment variable holding a profile path the Engine loads when no
/// profile was supplied programmatically.
inline constexpr const char* kTuneProfileEnvVar = "MSP_TUNE_PROFILE";

/// Thrown when a profile file cannot be parsed, fails schema validation,
/// or was recorded on a different machine.
class tune_profile_error : public io_error {
 public:
  using io_error::io_error;
};

/// What makes a profile transferable (or not): the compiled-for
/// architecture, compiler family+major (codegen), and pointer width.
/// The thread count is recorded as information only — the row-kernel
/// costs are per-row quantities, not affected by the OpenMP team size.
struct MachineFingerprint {
  std::string arch = "unknown";
  std::string compiler = "unknown";
  int pointer_bits = static_cast<int>(8 * sizeof(void*));
  int threads = 1;

  /// The match key: everything except the thread count.
  [[nodiscard]] std::string canonical() const {
    return arch + "|" + compiler + "|ptr" + std::to_string(pointer_bits);
  }

  static MachineFingerprint current() {
    MachineFingerprint f;
#if defined(__x86_64__) || defined(_M_X64)
    f.arch = "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
    f.arch = "aarch64";
#endif
#if defined(__clang__)
    f.compiler = "clang-" + std::to_string(__clang_major__);
#elif defined(__GNUC__)
    f.compiler = "gcc-" + std::to_string(__GNUC__);
#endif
    f.threads = max_threads();
    return f;
  }
};

/// Measured cost of each candidate row kernel in one calibration cell,
/// in nanoseconds per flop. 0 means "not measured" (quick mode skips
/// bins; decide_auto falls back to the nearest measured bin).
struct TuneCell {
  double msa_ns = 0.0;
  double hash_ns = 0.0;
  double heap_ns = 0.0;

  [[nodiscard]] bool measured() const {
    return msa_ns > 0.0 || hash_ns > 0.0 || heap_ns > 0.0;
  }
};

/// The persisted calibration result.
struct TuneProfile {
  std::string schema = kTuneProfileSchema;
  MachineFingerprint machine;
  bool quick = false;

  /// Mask-density regimes of the calibration grid: each entry is the
  /// ratio nnz(M(i,:)) / flops(i) the regime was generated at, ascending.
  std::vector<double> density_ratios;
  /// grid[d][b]: measured kernel costs at density regime d, flops bin b
  /// (bin indexing as in flops_bin / FlopsHistogram).
  std::vector<std::array<TuneCell, static_cast<std::size_t>(kFlopsBins)>> grid;

  /// Measured 1P-vs-2P crossover: one-phase while the admitted positions
  /// stay below crossover × total flops. An empty profile keeps 1.0.
  double phase_crossover = 1.0;

  [[nodiscard]] bool has_grid() const {
    for (const auto& row : grid)
      for (const auto& c : row)
        if (c.measured()) return true;
    return false;
  }
};

// ---------------------------------------------------------------------------
// Minimal JSON reader/writer. The repo has no JSON dependency by design
// (BENCH_baseline.json is emitted by shell printf); the profile needs a
// parser too, so this is the smallest correct one: objects, arrays,
// strings (no \u escapes — the writer never emits them), numbers, bools,
// null.

namespace detail {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw tune_profile_error("tune profile JSON: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': {
        v.kind = JsonValue::Kind::kObject;
        ++pos_;
        skip_ws();
        if (peek() == '}') { ++pos_; return v; }
        for (;;) {
          skip_ws();
          std::string key = string_body();
          skip_ws();
          expect(':');
          v.object.emplace_back(std::move(key), value());
          skip_ws();
          if (peek() == ',') { ++pos_; continue; }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.kind = JsonValue::Kind::kArray;
        ++pos_;
        skip_ws();
        if (peek() == ']') { ++pos_; return v; }
        for (;;) {
          v.array.push_back(value());
          skip_ws();
          if (peek() == ',') { ++pos_; continue; }
          expect(']');
          return v;
        }
      }
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = string_body();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v.kind = JsonValue::Kind::kNull;
        return v;
      default: {
        v.kind = JsonValue::Kind::kNumber;
        const char* begin = s_.data() + pos_;
        char* end = nullptr;
        v.number = std::strtod(begin, &end);
        if (end == begin) fail("bad number");
        pos_ += static_cast<std::size_t>(end - begin);
        return v;
      }
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default: fail("unsupported escape");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

inline JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

inline std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

inline double require_number(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    throw tune_profile_error("tune profile: missing numeric key \"" +
                             std::string(key) + "\"");
  }
  return v->number;
}

inline std::string require_string(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    throw tune_profile_error("tune profile: missing string key \"" +
                             std::string(key) + "\"");
  }
  return v->string;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Profile <-> JSON.

inline std::string to_json(const TuneProfile& p) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": " << detail::json_string(p.schema) << ",\n";
  out << "  \"machine\": {\"fingerprint\": "
      << detail::json_string(p.machine.canonical())
      << ", \"arch\": " << detail::json_string(p.machine.arch)
      << ", \"compiler\": " << detail::json_string(p.machine.compiler)
      << ", \"pointer_bits\": " << p.machine.pointer_bits
      << ", \"threads\": " << p.machine.threads << "},\n";
  out << "  \"quick\": " << (p.quick ? "true" : "false") << ",\n";
  out << "  \"flops_bins\": " << kFlopsBins << ",\n";
  out << "  \"phase_crossover\": " << detail::json_number(p.phase_crossover)
      << ",\n";
  out << "  \"density_ratios\": [";
  for (std::size_t d = 0; d < p.density_ratios.size(); ++d) {
    out << (d ? ", " : "") << detail::json_number(p.density_ratios[d]);
  }
  out << "],\n";
  out << "  \"grid\": [\n";
  for (std::size_t d = 0; d < p.grid.size(); ++d) {
    out << "    {\"density_ratio\": " << detail::json_number(p.density_ratios[d])
        << ", \"bins\": [";
    bool first = true;
    for (int b = 0; b < kFlopsBins; ++b) {
      const TuneCell& c = p.grid[d][static_cast<std::size_t>(b)];
      if (!c.measured()) continue;
      out << (first ? "" : ", ") << "{\"bin\": " << b
          << ", \"msa_ns\": " << detail::json_number(c.msa_ns)
          << ", \"hash_ns\": " << detail::json_number(c.hash_ns)
          << ", \"heap_ns\": " << detail::json_number(c.heap_ns) << "}";
      first = false;
    }
    out << "]}" << (d + 1 < p.grid.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

/// Parse and schema-validate a profile. Throws tune_profile_error on any
/// malformed document, wrong schema string, or inconsistent grid.
inline TuneProfile profile_from_json(std::string_view text) {
  using detail::JsonValue;
  const JsonValue doc = detail::parse_json(text);
  if (doc.kind != JsonValue::Kind::kObject) {
    throw tune_profile_error("tune profile: document is not an object");
  }
  TuneProfile p;
  p.schema = detail::require_string(doc, "schema");
  if (p.schema != kTuneProfileSchema) {
    throw tune_profile_error("tune profile: schema \"" + p.schema +
                             "\" does not match expected \"" +
                             kTuneProfileSchema + "\"");
  }
  const JsonValue* machine = doc.find("machine");
  if (machine == nullptr || machine->kind != JsonValue::Kind::kObject) {
    throw tune_profile_error("tune profile: missing \"machine\" object");
  }
  p.machine.arch = detail::require_string(*machine, "arch");
  p.machine.compiler = detail::require_string(*machine, "compiler");
  p.machine.pointer_bits =
      static_cast<int>(detail::require_number(*machine, "pointer_bits"));
  p.machine.threads =
      static_cast<int>(detail::require_number(*machine, "threads"));
  if (const JsonValue* q = doc.find("quick");
      q != nullptr && q->kind == JsonValue::Kind::kBool) {
    p.quick = q->boolean;
  }
  p.phase_crossover = detail::require_number(doc, "phase_crossover");
  if (!(p.phase_crossover > 0.0)) {
    throw tune_profile_error("tune profile: phase_crossover must be > 0");
  }
  const JsonValue* ratios = doc.find("density_ratios");
  const JsonValue* grid = doc.find("grid");
  if (ratios == nullptr || ratios->kind != JsonValue::Kind::kArray ||
      grid == nullptr || grid->kind != JsonValue::Kind::kArray ||
      ratios->array.size() != grid->array.size()) {
    throw tune_profile_error(
        "tune profile: density_ratios/grid missing or of mismatched length");
  }
  double prev = 0.0;
  for (const JsonValue& r : ratios->array) {
    if (r.kind != JsonValue::Kind::kNumber || r.number <= prev) {
      throw tune_profile_error(
          "tune profile: density_ratios must be positive and ascending");
    }
    p.density_ratios.push_back(r.number);
    prev = r.number;
  }
  p.grid.resize(p.density_ratios.size());
  for (std::size_t d = 0; d < grid->array.size(); ++d) {
    const JsonValue& row = grid->array[d];
    const JsonValue* bins = row.find("bins");
    if (row.kind != JsonValue::Kind::kObject || bins == nullptr ||
        bins->kind != JsonValue::Kind::kArray) {
      throw tune_profile_error("tune profile: grid rows need a \"bins\" array");
    }
    for (const JsonValue& cell : bins->array) {
      const int b = static_cast<int>(detail::require_number(cell, "bin"));
      if (b < 0 || b >= kFlopsBins) {
        throw tune_profile_error("tune profile: bin index out of range");
      }
      TuneCell& c = p.grid[d][static_cast<std::size_t>(b)];
      c.msa_ns = detail::require_number(cell, "msa_ns");
      c.hash_ns = detail::require_number(cell, "hash_ns");
      c.heap_ns = detail::require_number(cell, "heap_ns");
    }
  }
  return p;
}

inline void save_profile(const TuneProfile& p, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw tune_profile_error("cannot write tune profile: " + path);
  out << to_json(p);
  if (!out.good()) {
    throw tune_profile_error("short write on tune profile: " + path);
  }
}

/// Load + validate a profile; with `require_machine_match` (the default)
/// a profile recorded under a different arch/compiler/pointer-width
/// fingerprint is rejected rather than silently applied.
inline TuneProfile load_profile(const std::string& path,
                                bool require_machine_match = true) {
  std::ifstream in(path);
  if (!in) throw tune_profile_error("cannot read tune profile: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  TuneProfile p = profile_from_json(buf.str());
  if (require_machine_match) {
    const std::string here = MachineFingerprint::current().canonical();
    if (p.machine.canonical() != here) {
      throw tune_profile_error("tune profile fingerprint mismatch: profile \"" +
                               p.machine.canonical() + "\" vs this machine \"" +
                               here + "\" (" + path + ")");
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Model-driven resolution of Scheme::kAuto.

/// A resolved kAuto decision: concrete options plus the per-flops-bin
/// route table the options point at. The table is stored by value so the
/// caller controls its lifetime; wire it up with `use_table()` after
/// placing the decision somewhere stable.
struct AutoDecision {
  MaskedSpgemmOptions options;
  AdaptiveRouteTable table;

  /// Point options.route_table at this decision's table (call after the
  /// AutoDecision has reached its final storage location).
  MaskedSpgemmOptions& use_table() {
    options.route_table = &table;
    return options;
  }
};

/// Widest matrix the calibrated model will route to MSA. MSA has no
/// per-row O(ncols) cost (the dense lanes live in per-thread scratch and
/// only touched entries are reset), so the limit is not the adaptive
/// kernel's conservative cache-residency default: it only bounds how far
/// the grid — measured at small ncols — is extrapolated, and caps the
/// per-thread scratch (9 bytes/column ≈ 9 MiB at the cap).
inline constexpr std::int64_t kMsaMaxCols = std::int64_t{1} << 20;

namespace detail {

/// Nearest measured bin to `want` at density regime d (ties toward the
/// smaller bin); -1 when the regime has no measurements at all.
inline int nearest_measured_bin(const TuneProfile& p, std::size_t d, int want) {
  int best = -1, best_dist = kFlopsBins + 1;
  for (int b = 0; b < kFlopsBins; ++b) {
    if (!p.grid[d][static_cast<std::size_t>(b)].measured()) continue;
    const int dist = b > want ? b - want : want - b;
    if (dist < best_dist) {
      best = b;
      best_dist = dist;
    }
  }
  return best;
}

/// Density regime whose calibrated ratio is log-nearest to `ratio`.
inline std::size_t nearest_density(const TuneProfile& p, double ratio) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  const double lr = std::log(std::max(ratio, 1e-9));
  for (std::size_t d = 0; d < p.density_ratios.size(); ++d) {
    const double dist = std::abs(std::log(p.density_ratios[d]) - lr);
    if (dist < best_dist) {
      best = d;
      best_dist = dist;
    }
  }
  return best;
}

}  // namespace detail

/// Resolve kAuto from the calibrated model: phase from the measured
/// 1P/2P crossover (`crossover` is the — possibly online-refined —
/// admitted/flops ratio below which one-phase wins), per-bin accumulator
/// from the measured grid, or from the fallback rule for cells the grid
/// does not cover (all of them for an empty profile). MSA is capped at
/// kMsaMaxCols because the grid is measured at a fixed (small) ncols.
inline AutoDecision decide_auto(const TuneProfile& profile,
                                const FlopsHistogram& hist,
                                std::size_t mask_nnz, std::int64_t nrows,
                                std::int64_t ncols, MaskKind kind,
                                double crossover) {
  AutoDecision dec;
  dec.options.algorithm = MaskedAlgorithm::kAdaptive;
  dec.options.mask_kind = kind;

  const double total_flops = static_cast<double>(hist.total_flops);
  const double admitted =
      kind == MaskKind::kMask
          ? static_cast<double>(mask_nnz)
          : static_cast<double>(nrows) * static_cast<double>(ncols) -
                static_cast<double>(mask_nnz);
  dec.options.phase = admitted <= crossover * total_flops
                          ? MaskedPhase::kOnePhase
                          : MaskedPhase::kTwoPhase;
  // The crossover prices the *cold* 1P/2P trade-off (bound waste vs a
  // symbolic pass). Once a plan holds the exact output structure, the
  // symbolic pass costs nothing, so let execution upgrade to two-phase.
  dec.options.exact_phase_when_cached = true;

  // Per-bin routing. The admitted-positions-per-row estimate is global
  // (mask rows are not binned by flops), which matches how the grid was
  // calibrated: density ratio = admitted(i) / flops(i).
  const double rows = static_cast<double>(std::max<std::int64_t>(1, hist.total_rows));
  const double admitted_per_row = admitted / rows;
  const bool msa_ok = ncols <= kMsaMaxCols;
  const bool heap_ok = kind == MaskKind::kMask;
  for (int b = 0; b < kFlopsBins; ++b) {
    auto& slot = dec.table.route[static_cast<std::size_t>(b)];
    const std::int64_t bin_rows = hist.rows[static_cast<std::size_t>(b)];
    const double avg_flops =
        bin_rows > 0 ? static_cast<double>(hist.flops[static_cast<std::size_t>(b)]) /
                           static_cast<double>(bin_rows)
                     : static_cast<double>(std::int64_t{1} << std::max(0, b - 1));
    const double ratio = admitted_per_row / std::max(avg_flops, 1.0);
    // Fallback for unmeasured cells: Heap when the mask admits far more
    // positions than the row's flops, else MSA up to its width cap, else
    // Hash.
    slot = (heap_ok && ratio >= 4.0) ? RowAlgo::kHeap
           : msa_ok                  ? RowAlgo::kMsa
                                     : RowAlgo::kHash;
    if (profile.grid.empty()) continue;
    const std::size_t d = detail::nearest_density(profile, ratio);
    const int mb = detail::nearest_measured_bin(profile, d, b);
    if (mb < 0) continue;
    const TuneCell& c = profile.grid[d][static_cast<std::size_t>(mb)];
    double best_cost = std::numeric_limits<double>::infinity();
    if (c.msa_ns > 0.0 && msa_ok && c.msa_ns < best_cost) {
      best_cost = c.msa_ns;
      slot = RowAlgo::kMsa;
    }
    if (c.hash_ns > 0.0 && c.hash_ns < best_cost) {
      best_cost = c.hash_ns;
      slot = RowAlgo::kHash;
    }
    if (c.heap_ns > 0.0 && heap_ok && c.heap_ns < best_cost) {
      best_cost = c.heap_ns;
      slot = RowAlgo::kHeap;
    }
  }
  // When one route carries (nearly) all of the workload's flops, collapse
  // the table to that static kernel: the adaptive wrapper's per-row flops
  // binning and route lookup buy nothing when virtually every row it
  // touches dispatches the same way. Strict bin uniformity is the wrong
  // test — near-empty bins (a handful of one-flop rows routed to Heap by
  // the high-ratio rule) would otherwise pin the whole multiply on the
  // wrapper. Every row kernel computes the same bits, so sending the
  // negligible remainder through the dominant kernel moves only time.
  std::array<double, 3> route_flops{};
  for (int b = 0; b < kFlopsBins; ++b) {
    route_flops[static_cast<std::size_t>(
        dec.table.route[static_cast<std::size_t>(b)])] +=
        static_cast<double>(hist.flops[static_cast<std::size_t>(b)]);
  }
  int dominant = 0;
  for (int r = 1; r < 3; ++r) {
    if (route_flops[static_cast<std::size_t>(r)] >
        route_flops[static_cast<std::size_t>(dominant)]) {
      dominant = r;
    }
  }
  // total_flops == 0 keeps kAdaptive: with no work there is nothing to
  // win, and a dominant route picked from an all-zero tally could name a
  // kernel the validity gates (ncols, complement) excluded.
  if (hist.total_flops > 0 &&
      route_flops[static_cast<std::size_t>(dominant)] >=
          0.99 * static_cast<double>(hist.total_flops)) {
    switch (static_cast<RowAlgo>(dominant)) {
      case RowAlgo::kMsa: dec.options.algorithm = MaskedAlgorithm::kMsa; break;
      case RowAlgo::kHash:
        dec.options.algorithm = MaskedAlgorithm::kHash;
        break;
      case RowAlgo::kHeap:
        dec.options.algorithm = MaskedAlgorithm::kHeap;
        break;
    }
  }
  return dec;
}

/// The stateful selector the Engine holds: calibrated decisions plus
/// optional online refinement of the phase crossover from observed
/// execution statistics (the PlanUsageStats feedback loop of the ROADMAP
/// item). Not thread-safe — owned by an Engine, which is single-caller.
class TunedSelector {
 public:
  explicit TunedSelector(TuneProfile profile, bool online_refine = true)
      : profile_(std::move(profile)),
        crossover_(profile_.phase_crossover > 0.0 ? profile_.phase_crossover
                                                  : 1.0),
        refine_(online_refine) {}

  [[nodiscard]] AutoDecision decide(const FlopsHistogram& hist,
                                    std::size_t mask_nnz, std::int64_t nrows,
                                    std::int64_t ncols, MaskKind kind) const {
    return decide_auto(profile_, hist, mask_nnz, nrows, ncols, kind,
                       crossover_);
  }

  /// Online refinement: nudge the phase crossover from what one executed
  /// multiply reported. A one-phase run whose bound was loose (the
  /// compaction threw most of the temporary away) argues for less 1P; a
  /// two-phase run dominated by its symbolic pass argues for more. The
  /// nudges are multiplicative, deterministic, and clamped to a factor
  /// of 8 around the calibrated value so drift stays bounded.
  void observe(const MaskedSpgemmStats& s) {
    if (!refine_) return;
    const bool one_phase = s.assemble_seconds > 0.0 || s.bound_nnz > 0;
    if (one_phase) {
      const double tightness = s.bound_tightness();
      if (tightness < 0.25) {
        crossover_ *= 0.9;
      } else if (tightness > 0.5) {
        crossover_ *= 1.02;
      }
    } else if (s.symbolic_seconds > 0.0 &&
               s.symbolic_seconds > s.numeric_seconds) {
      crossover_ *= 1.1;
    }
    const double base =
        profile_.phase_crossover > 0.0 ? profile_.phase_crossover : 1.0;
    crossover_ = std::clamp(crossover_, base / 8.0, base * 8.0);
  }

  [[nodiscard]] double crossover() const { return crossover_; }
  [[nodiscard]] const TuneProfile& profile() const { return profile_; }
  [[nodiscard]] bool refining() const { return refine_; }

 private:
  TuneProfile profile_;
  double crossover_;
  bool refine_;
};

/// The one kAuto resolver every dispatch layer calls. `selector` is the
/// installed calibrated model; null runs the same model with an empty
/// profile (crossover 1.0, fallback cells only, no refinement). Copies
/// the whole decision for the mask kind already in `opt` — algorithm,
/// phase, route table, warm-plan two-phase upgrade — into `opt`. `dec`
/// owns the route table and must outlive the multiply.
inline void resolve_auto(const TunedSelector* selector,
                         const FlopsHistogram& hist, std::size_t mask_nnz,
                         std::int64_t nrows, std::int64_t ncols,
                         AutoDecision& dec, MaskedSpgemmOptions& opt) {
  static const TuneProfile kEmpty;
  dec = selector != nullptr
            ? selector->decide(hist, mask_nnz, nrows, ncols, opt.mask_kind)
            : decide_auto(kEmpty, hist, mask_nnz, nrows, ncols, opt.mask_kind,
                          kEmpty.phase_crossover);
  const MaskedSpgemmOptions& resolved = dec.use_table();
  opt.algorithm = resolved.algorithm;
  opt.phase = resolved.phase;
  opt.route_table = resolved.route_table;
  opt.exact_phase_when_cached = resolved.exact_phase_when_cached;
}

// ---------------------------------------------------------------------------
// Calibration.

struct CalibrationOptions {
  /// Quick mode for CI smoke runs: fewer bins/ratios, smaller inputs,
  /// single repetition. A quick profile is valid (and marked "quick").
  bool quick = false;
  std::uint64_t seed = 7;
  /// Best-of repetitions per measurement (quick mode forces 1).
  int reps = 2;
};

namespace detail {

using CalIT = index_t;
using CalVT = double;
using CalSR = PlusTimes<CalVT>;
using CalCsr = CsrMatrix<CalIT, CalVT>;

/// One synthetic ER row: each column of [0, n) included independently
/// with probability deg/n, via the same geometric skip sampling as
/// gen/erdos_renyi.hpp (sorted, duplicate-free by construction).
inline void er_row(Xoshiro256& rng, CalIT n, double deg,
                   std::vector<CalIT>& out) {
  out.clear();
  const double p = std::min(1.0, deg / static_cast<double>(n));
  if (p <= 0.0) return;
  if (p >= 1.0) {
    for (CalIT j = 0; j < n; ++j) out.push_back(j);
    return;
  }
  const double inv_log1mp = 1.0 / std::log1p(-p);
  double j = -1.0;
  for (;;) {
    const double u = std::max(rng.next_double(), 1e-300);
    j += 1.0 + std::floor(std::log(u) * inv_log1mp);
    if (j >= static_cast<double>(n)) break;
    out.push_back(static_cast<CalIT>(j));
  }
}

/// rows×n CSR whose rows are independent ER samples of expected degree
/// `deg` (value 1.0 everywhere — calibration times structure, not values).
inline CalCsr er_rows(CalIT rows, CalIT n, double deg, std::uint64_t seed) {
  CalCsr out(rows, n);
  std::vector<CalIT> row;
  std::vector<std::vector<CalIT>> all(static_cast<std::size_t>(rows));
  std::size_t total = 0;
  for (CalIT i = 0; i < rows; ++i) {
    Xoshiro256 rng(seed, static_cast<std::uint64_t>(i));
    er_row(rng, n, deg, row);
    total += row.size();
    all[static_cast<std::size_t>(i)] = row;
    out.rowptr[static_cast<std::size_t>(i) + 1] = static_cast<CalIT>(total);
  }
  out.colids.reserve(total);
  for (const auto& r : all) {
    out.colids.insert(out.colids.end(), r.begin(), r.end());
  }
  out.values.assign(total, CalVT{1});
  return out;
}

/// Best-of-`reps` seconds for running `rows` numeric rows of one kernel.
template <class Kernel>
double time_kernel_rows(Kernel& k, CalIT rows, std::vector<CalIT>& oc,
                        std::vector<CalVT>& ov, int reps) {
  double best = std::numeric_limits<double>::infinity();
  volatile CalIT sink = 0;  // keep the row results observable
  for (int r = 0; r < reps; ++r) {
    Timer t;
    CalIT total = 0;
    for (CalIT i = 0; i < rows; ++i) {
      total += k.numeric_row(i, oc.data(), ov.data());
    }
    best = std::min(best, t.seconds());
    sink = total;
  }
  (void)sink;
  return best;
}

}  // namespace detail

/// Measure the per-machine profile. Serial on purpose: the grid captures
/// per-row kernel cost, which does not depend on the OpenMP team; the
/// phase crossover runs through the normal parallel driver.
inline TuneProfile calibrate(const CalibrationOptions& opts = {}) {
  using namespace detail;
  TuneProfile p;
  p.machine = MachineFingerprint::current();
  p.quick = opts.quick;
  const int reps = opts.quick ? 1 : std::max(1, opts.reps);

  // --- Grid: row-kernel cost per flops bin × mask-density regime on
  // synthetic ER rows. b_deg fixes nnz per B row; a_deg scales the per-row
  // flops to the bin target; mask_deg sets admitted positions per row.
  const CalIT n = opts.quick ? CalIT{1} << 12 : CalIT{1} << 13;
  const std::vector<int> bins =
      opts.quick ? std::vector<int>{3, 7, 11}
                 : std::vector<int>{1, 3, 5, 7, 9, 11, 13};
  p.density_ratios = opts.quick ? std::vector<double>{0.125, 8.0}
                                : std::vector<double>{0.0625, 0.5, 4.0, 32.0};
  p.grid.assign(p.density_ratios.size(), {});

  const std::int64_t flops_budget = opts.quick ? (1 << 20) : (1 << 22);
  std::vector<CalIT> oc(static_cast<std::size_t>(n));
  std::vector<CalVT> ov(static_cast<std::size_t>(n));
  std::uint64_t stream = 0;
  for (std::size_t d = 0; d < p.density_ratios.size(); ++d) {
    const double ratio = p.density_ratios[d];
    for (int b : bins) {
      const std::int64_t flops_target = std::int64_t{1} << (b - 1);
      const double b_deg = static_cast<double>(std::min<std::int64_t>(16, flops_target));
      const double a_deg =
          std::max(1.0, static_cast<double>(flops_target) / b_deg);
      const double mask_deg = std::clamp(
          ratio * static_cast<double>(flops_target), 1.0,
          0.9 * static_cast<double>(n));
      const CalIT rows = static_cast<CalIT>(std::clamp<std::int64_t>(
          flops_budget / std::max<std::int64_t>(1, flops_target), 64, n));

      const CalCsr a = er_rows(rows, n, a_deg, opts.seed + 11 * ++stream);
      const CalCsr bm = er_rows(n, n, b_deg, opts.seed + 11 * ++stream);
      const CalCsr m = er_rows(rows, n, mask_deg, opts.seed + 11 * ++stream);
      const std::int64_t actual_flops =
          std::max<std::int64_t>(1, total_flops(a, bm));

      TuneCell& cell = p.grid[d][static_cast<std::size_t>(b)];
      {
        typename MsaKernel<CalSR, CalIT, CalVT, CalVT>::Scratch s;
        MsaKernel<CalSR, CalIT, CalVT, CalVT> k(a, bm, m, false, &s);
        cell.msa_ns = time_kernel_rows(k, rows, oc, ov, reps) * 1e9 /
                      static_cast<double>(actual_flops);
      }
      {
        typename HashKernel<CalSR, CalIT, CalVT, CalVT>::Scratch s;
        HashKernel<CalSR, CalIT, CalVT, CalVT> k(a, bm, m, false, &s);
        cell.hash_ns = time_kernel_rows(k, rows, oc, ov, reps) * 1e9 /
                       static_cast<double>(actual_flops);
      }
      {
        typename HeapKernel<CalSR, CalIT, CalVT, CalVT>::Scratch s;
        HeapKernel<CalSR, CalIT, CalVT, CalVT> k(a, bm, m, false, 1, &s);
        cell.heap_ns = time_kernel_rows(k, rows, oc, ov, reps) * 1e9 /
                       static_cast<double>(actual_flops);
      }
    }
  }

  // --- Phase crossover on an R-MAT graph (skewed rows, the shape the
  // graph benchmarks actually see) with ER masks sweeping the
  // admitted/flops ratio. One-phase wins below the crossover ratio.
  const int scale = opts.quick ? 9 : 11;
  const CalCsr g = rmat_graph<CalIT, CalVT>(scale, 8.0);
  const CalIT gn = g.nrows;
  const std::int64_t tf = std::max<std::int64_t>(1, total_flops(g, g));
  double last_win = 0.0, first_loss = 0.0;
  for (double target : {0.0625, 0.25, 1.0, 4.0}) {
    const double mask_deg =
        std::clamp(target * static_cast<double>(tf) / static_cast<double>(gn),
                   1.0, 0.5 * static_cast<double>(gn));
    const CalCsr m = er_rows(gn, gn, mask_deg, opts.seed + 977);
    const double ratio =
        static_cast<double>(m.nnz()) / static_cast<double>(tf);
    double t1 = 0.0, t2 = 0.0;
    for (int r = 0; r < reps; ++r) {
      MaskedSpgemmOptions o;
      o.algorithm = MaskedAlgorithm::kMsa;
      o.phase = MaskedPhase::kOnePhase;
      Timer w1;
      auto c1 = masked_multiply<CalSR>(g, g, m, o);
      t1 = r == 0 ? w1.seconds() : std::min(t1, w1.seconds());
      o.phase = MaskedPhase::kTwoPhase;
      Timer w2;
      auto c2 = masked_multiply<CalSR>(g, g, m, o);
      t2 = r == 0 ? w2.seconds() : std::min(t2, w2.seconds());
    }
    if (t1 <= t2) {
      last_win = std::max(last_win, ratio);
    } else if (first_loss == 0.0) {
      first_loss = ratio;
    }
  }
  if (last_win > 0.0 && first_loss > last_win) {
    p.phase_crossover = std::sqrt(last_win * first_loss);
  } else if (last_win > 0.0) {
    p.phase_crossover = 2.0 * last_win;  // 1P won everywhere we looked
  } else if (first_loss > 0.0) {
    p.phase_crossover = 0.5 * first_loss;  // 2P won everywhere
  }
  return p;
}

/// One-per-process lazy load of $MSP_TUNE_PROFILE. Returns nullptr when
/// the variable is unset or the file is rejected (one stderr warning —
/// a bad profile must not silently change behaviour, only tuning).
inline const TuneProfile* env_profile() {
  static const std::optional<TuneProfile> cached = []() -> std::optional<TuneProfile> {
    const char* path = std::getenv(kTuneProfileEnvVar);
    if (path == nullptr || *path == '\0') return std::nullopt;
    try {
      return load_profile(path);
    } catch (const tune_profile_error& e) {
      std::fprintf(stderr, "mspgemm: ignoring %s: %s\n", kTuneProfileEnvVar,
                   e.what());
      return std::nullopt;
    }
  }();
  return cached ? &*cached : nullptr;
}

}  // namespace msp::tuner
