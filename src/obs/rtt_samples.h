// ccsig::obs — opt-in tap on the slow-start RTT samples behind each verdict.
//
// The stream engine keeps a flow's RTT samples only until the flow is
// finalized; reports carry the features, not the samples. A tool that
// wants the samples themselves (ccsig_analyze --flow-telemetry) installs a
// process-global RttSampleSink, the same way --trace-out installs its
// TraceWriter, and the engine hands every finalized flow's samples to it.
// With no sink installed the engine pays one atomic load per finalized
// flow; under CCSIG_OBS_OFF global() is a constant nullptr and the call
// site compiles away.
#pragma once

#include <atomic>
#include <span>

#include "analysis/slow_start.h"
#include "sim/packet.h"
#include "sim/time.h"

namespace ccsig::obs {

class RttSampleSink {
 public:
  virtual ~RttSampleSink() = default;

  /// One finalized flow with payload: its data-direction key, start time
  /// and the slow-start RTT samples its features were computed from. Called
  /// from whichever thread finalized the flow — engine workers included —
  /// so implementations must be thread-safe. `samples` is valid only for
  /// the duration of the call.
  virtual void on_flow(const sim::FlowKey& data_key, sim::Time start,
                       std::span<const analysis::RttSample> samples) = 0;

#ifndef CCSIG_OBS_OFF
  /// The installed sink, or nullptr (the default).
  static RttSampleSink* global() {
    return slot().load(std::memory_order_acquire);
  }

  /// Installs `s` (nullptr to disable) and returns the previous sink. The
  /// installed sink must outlive every engine that may finalize a flow.
  static RttSampleSink* install_global(RttSampleSink* s) {
    return slot().exchange(s, std::memory_order_acq_rel);
  }

 private:
  static std::atomic<RttSampleSink*>& slot() {
    static std::atomic<RttSampleSink*> s{nullptr};
    return s;
  }
#else
  static constexpr RttSampleSink* global() { return nullptr; }
  static RttSampleSink* install_global(RttSampleSink*) { return nullptr; }
#endif
};

}  // namespace ccsig::obs
