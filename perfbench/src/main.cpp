// mspbench: runs one benchmark workload and prints one JSON object as its
// last line (see README.md). Normally launched through run.py, which builds
// this binary and the serve worker first.
//
//   mspbench --workload NAME --seed N --seconds S --trace 0|1
//            [--worker-bin PATH] [--trace-out FILE]
#include <unistd.h>

#include <cmath>
#include <cstdlib>

#include "bench.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: mspbench --workload tricount|stream|tiled-spill "
               "--seed N --seconds S --trace 0|1 [--worker-bin PATH] "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--worker-bin") {
      opt.worker_bin = v;
    } else if (k == "--trace-out") {
      opt.trace_path = v;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();

  pb::Report rep;
  pb::Tracer tr(opt.trace);
  try {
    if (opt.workload == "tricount") {
      pb::run_tricount(opt, rep, tr);
    } else if (opt.workload == "stream") {
      pb::run_stream(opt, rep, tr);
    } else if (opt.workload == "tiled-spill") {
      pb::run_tiled(opt, rep, tr);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    // A workload that cannot run is a failure, never a skipped result.
    std::fprintf(stderr, "mspbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opt.trace && !opt.trace_path.empty() &&
      !tr.write_chrome(opt.trace_path, static_cast<int>(::getpid()))) {
    std::fprintf(stderr, "mspbench: cannot write %s\n", opt.trace_path.c_str());
    return 1;
  }

  std::string out = "{\"correct\": ";
  out += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& [name, vu] = rep.metrics[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", " : "") + std::string("\"") + name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}, \"notes\": {";
  for (std::size_t i = 0; i < rep.notes.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + rep.notes[i].first +
           "\": " + rep.notes[i].second;
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(rep.errors[i]) + "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
