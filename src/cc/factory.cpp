#include "cc/cc_variant.hpp"

#include <stdexcept>

namespace bbrnash {

const char* to_string(CcKind kind) {
  switch (kind) {
    case CcKind::kCubic:
      return "cubic";
    case CcKind::kReno:
      return "reno";
    case CcKind::kBbr:
      return "bbr";
    case CcKind::kBbrV2:
      return "bbrv2";
    case CcKind::kCopa:
      return "copa";
    case CcKind::kVivace:
      return "vivace";
    case CcKind::kVegas:
      return "vegas";
  }
  return "unknown";
}

CcVariant make_cc_variant(CcKind kind, const CcConfig& cfg) {
  switch (kind) {
    case CcKind::kCubic: {
      CubicConfig c;
      c.mss = cfg.mss;
      c.initial_cwnd = cfg.initial_cwnd;
      return CcVariant{Cubic{c}};
    }
    case CcKind::kReno: {
      RenoConfig c;
      c.mss = cfg.mss;
      c.initial_cwnd = cfg.initial_cwnd;
      return CcVariant{Reno{c}};
    }
    case CcKind::kBbr: {
      BbrConfig c;
      c.mss = cfg.mss;
      c.initial_cwnd = cfg.initial_cwnd;
      c.min_pipe_cwnd = 4 * cfg.mss;
      c.seed = cfg.seed;
      c.cwnd_gain = cfg.bbr_cwnd_gain;
      return CcVariant{Bbr{c}};
    }
    case CcKind::kBbrV2: {
      BbrV2Config c;
      c.mss = cfg.mss;
      c.initial_cwnd = cfg.initial_cwnd;
      c.min_pipe_cwnd = 4 * cfg.mss;
      c.seed = cfg.seed;
      c.cwnd_gain = cfg.bbr_cwnd_gain;
      return CcVariant{BbrV2{c}};
    }
    case CcKind::kCopa: {
      CopaConfig c;
      c.mss = cfg.mss;
      c.initial_cwnd = cfg.initial_cwnd;
      c.min_cwnd = 4 * cfg.mss;
      return CcVariant{Copa{c}};
    }
    case CcKind::kVivace: {
      VivaceConfig c;
      c.mss = cfg.mss;
      c.initial_cwnd = cfg.initial_cwnd;
      return CcVariant{Vivace{c}};
    }
    case CcKind::kVegas: {
      VegasConfig c;
      c.mss = cfg.mss;
      c.initial_cwnd = cfg.initial_cwnd;
      return CcVariant{Vegas{c}};
    }
  }
  throw std::invalid_argument{"unknown congestion control kind"};
}

}  // namespace bbrnash
