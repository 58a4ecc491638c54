// In-memory tcpdump: a TraceSink that appends what a capture of each
// packet would carry to a Trace.
#pragma once

#include "analysis/wire_record.h"
#include "sim/trace.h"

namespace ccsig::analysis {

class TraceRecorder : public sim::TraceSink {
 public:
  void on_packet(sim::Time t, const sim::Packet& p) override {
    trace_.push_back(wire_record_from_packet(t, p));
  }

  const Trace& trace() const { return trace_; }
  Trace take() { return std::move(trace_); }
  void clear() { trace_.clear(); }

 private:
  Trace trace_;
};

}  // namespace ccsig::analysis
