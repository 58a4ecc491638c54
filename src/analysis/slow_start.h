// The per-flow quantities the congestion-signature method reduces a
// connection to: slow-start RTT samples, the slow-start boundary, and the
// cumulative-ACK advances behind the slow-start throughput.
// stream::FlowState computes them incrementally.
//
// The paper defines the slow-start period as everything up to the first
// retransmission or fast retransmission (§2.3). From a capture, both appear
// as a data segment whose sequence range was already transmitted. An RTT
// sample pairs a downstream data segment with the ACK that covers it
// (§3.2); retransmitted ranges never produce samples (Karn's rule).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace ccsig::analysis {

struct RttSample {
  sim::Time at = 0;        // when the ACK arrived at the server
  sim::Duration rtt = 0;
  std::uint64_t acked_seq = 0;  // stream offset the sample belongs to
};

struct SlowStartInfo {
  /// Time of the first retransmitted data segment; the slow-start RTT
  /// window is [flow start, end_time).
  sim::Time end_time = 0;
  /// True when a retransmission was found; false means the flow never
  /// retransmitted and `end_time` is the end of the flow.
  bool ended_by_retransmission = false;
  /// Unique payload bytes cumulatively ACKed by `end_time` — the basis of
  /// the slow-start throughput used for labeling.
  std::uint64_t acked_bytes = 0;
};

/// One strict advance of the cumulative ACK: the running maximum of the
/// ACK field increased to `ack` at `time`. The advance sequence is the
/// sufficient statistic for slow-start throughput, so the engine keeps
/// only these (pruned) instead of every ACK record.
struct AckAdvance {
  sim::Time time = 0;
  std::uint64_t ack = 0;
};

}  // namespace ccsig::analysis
