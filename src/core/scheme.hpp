// The Scheme registry: the paper's 14 evaluated configurations (§8) as a
// runtime enumeration, plus the capability/decomposition helpers every
// dispatch layer shares. Split out of core/dispatch.hpp so the Engine
// facade (core/engine.hpp) and the legacy free-function shims
// (core/dispatch.hpp) agree on one registry without an include cycle.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "util/common.hpp"

namespace msp {

/// Every scheme of paper §8: {MSA, Hash, MCA, Heap, HeapDot, Inner} ×
/// {1P, 2P} plus the two SuiteSparse:GraphBLAS-style baselines, plus
/// `kAuto` — the runtime-selection seam: not a 15th kernel but a policy
/// that resolves per call (see tuner::resolve_auto in core/tuner.hpp).
enum class Scheme {
  kMsa1P,
  kMsa2P,
  kHash1P,
  kHash2P,
  kMca1P,
  kMca2P,
  kHeap1P,
  kHeap2P,
  kHeapDot1P,
  kHeapDot2P,
  kInner1P,
  kInner2P,
  kSsDot,
  kSsSaxpy,
  kAuto,
};

inline std::string_view scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kMsa1P: return "MSA-1P";
    case Scheme::kMsa2P: return "MSA-2P";
    case Scheme::kHash1P: return "Hash-1P";
    case Scheme::kHash2P: return "Hash-2P";
    case Scheme::kMca1P: return "MCA-1P";
    case Scheme::kMca2P: return "MCA-2P";
    case Scheme::kHeap1P: return "Heap-1P";
    case Scheme::kHeap2P: return "Heap-2P";
    case Scheme::kHeapDot1P: return "HeapDot-1P";
    case Scheme::kHeapDot2P: return "HeapDot-2P";
    case Scheme::kInner1P: return "Inner-1P";
    case Scheme::kInner2P: return "Inner-2P";
    case Scheme::kSsDot: return "SS:DOT";
    case Scheme::kSsSaxpy: return "SS:SAXPY";
    case Scheme::kAuto: return "Auto";
  }
  return "?";
}

/// Parse a paper-style scheme label ("MSA-1P", "SS:DOT", "Auto", ...).
/// Returns false when the name matches no scheme.
inline bool scheme_from_name(std::string_view name, Scheme& out) {
  for (Scheme s :
       {Scheme::kMsa1P, Scheme::kMsa2P, Scheme::kHash1P, Scheme::kHash2P,
        Scheme::kMca1P, Scheme::kMca2P, Scheme::kHeap1P, Scheme::kHeap2P,
        Scheme::kHeapDot1P, Scheme::kHeapDot2P, Scheme::kInner1P,
        Scheme::kInner2P, Scheme::kSsDot, Scheme::kSsSaxpy, Scheme::kAuto}) {
    if (name == scheme_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

/// The 12 schemes proposed in the paper (Fig. 8's line-up). `kAuto` is a
/// selection policy over these, not a member.
inline std::vector<Scheme> our_schemes() {
  return {Scheme::kMsa1P,     Scheme::kMsa2P,  Scheme::kHash1P,
          Scheme::kHash2P,    Scheme::kMca1P,  Scheme::kMca2P,
          Scheme::kHeap1P,    Scheme::kHeap2P, Scheme::kHeapDot1P,
          Scheme::kHeapDot2P, Scheme::kInner1P, Scheme::kInner2P};
}

/// All 14 schemes including baselines (still excluding `kAuto`, which has
/// no identity of its own in the paper's plots).
inline std::vector<Scheme> all_schemes() {
  auto v = our_schemes();
  v.push_back(Scheme::kSsDot);
  v.push_back(Scheme::kSsSaxpy);
  return v;
}

/// True if the scheme can execute with a complemented mask (MCA and the
/// paper's MCA-based results exclude complement; see §8.4). `kAuto` only
/// ever resolves to complement-capable schemes under a complemented mask.
inline bool scheme_supports_complement(Scheme s) {
  return s != Scheme::kMca1P && s != Scheme::kMca2P;
}

/// Thrown by every dispatch layer (run_scheme, the Engine builder,
/// multiply_dyn) when a scheme is asked to execute a configuration it
/// cannot support — currently a complemented mask on the MCA schemes. The
/// offending scheme is carried both in the message and as a field, so
/// services can report the rejected configuration by name instead of
/// pattern-matching a generic invalid_argument.
class unsupported_scheme_error : public invalid_argument_error {
 public:
  unsupported_scheme_error(Scheme s, const std::string& what_failed)
      : invalid_argument_error("scheme " + std::string(scheme_name(s)) +
                               ": " + what_failed),
        scheme_(s) {}

  [[nodiscard]] Scheme scheme() const { return scheme_; }

 private:
  Scheme scheme_;
};

/// Reject unsupported (scheme, mask kind) combinations loudly, before any
/// kernel or parallel region is entered. Every dispatch entry point calls
/// this so a complemented MCA request can never silently mis-dispatch.
inline void require_scheme_supports(Scheme s, MaskKind kind) {
  if (kind == MaskKind::kComplement && !scheme_supports_complement(s)) {
    throw unsupported_scheme_error(s, "complemented masks are not supported");
  }
}

/// Decompose a scheme into dispatcher options. The baselines and `kAuto`
/// have no static decomposition and return false; the dispatch layers
/// resolve kAuto from the call's flops through tuner::resolve_auto.
inline bool scheme_to_options(Scheme s, MaskedSpgemmOptions& opt) {
  switch (s) {
    case Scheme::kMsa1P:
    case Scheme::kMsa2P:
      opt.algorithm = MaskedAlgorithm::kMsa;
      break;
    case Scheme::kHash1P:
    case Scheme::kHash2P:
      opt.algorithm = MaskedAlgorithm::kHash;
      break;
    case Scheme::kMca1P:
    case Scheme::kMca2P:
      opt.algorithm = MaskedAlgorithm::kMca;
      break;
    case Scheme::kHeap1P:
    case Scheme::kHeap2P:
      opt.algorithm = MaskedAlgorithm::kHeap;
      break;
    case Scheme::kHeapDot1P:
    case Scheme::kHeapDot2P:
      opt.algorithm = MaskedAlgorithm::kHeapDot;
      break;
    case Scheme::kInner1P:
    case Scheme::kInner2P:
      opt.algorithm = MaskedAlgorithm::kInner;
      break;
    case Scheme::kAuto:
    case Scheme::kSsDot:
    case Scheme::kSsSaxpy:
      return false;
  }
  switch (s) {
    case Scheme::kMsa2P:
    case Scheme::kHash2P:
    case Scheme::kMca2P:
    case Scheme::kHeap2P:
    case Scheme::kHeapDot2P:
    case Scheme::kInner2P:
      opt.phase = MaskedPhase::kTwoPhase;
      break;
    default:
      opt.phase = MaskedPhase::kOnePhase;
      break;
  }
  return true;
}

}  // namespace msp
