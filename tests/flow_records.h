// A builder of hand-made wire records for one connection, run through a
// stream::FlowState: the unit-test input for the flow engine's rules.
#pragma once

#include <algorithm>
#include <vector>

#include "analysis/wire_record.h"
#include "stream/flow_state.h"

namespace ccsig::testutil {

/// Hand-built wire records of one connection, run through a
/// stream::FlowState in the order they were added (capture order). `key`
/// is the data direction; ACKs travel the reverse way.
struct FlowRecords {
  sim::FlowKey key{1, 2, 10, 20};
  analysis::Trace records;

  analysis::WireRecord& data(sim::Time t, std::uint32_t seq,
                             std::uint32_t len) {
    analysis::WireRecord w;
    w.time = t;
    w.key = key;
    w.seq32 = seq;
    w.ack32 = 1;
    w.payload_bytes = len;
    w.flags.ack = true;
    return records.emplace_back(w);
  }

  analysis::WireRecord& ack(sim::Time t, std::uint32_t acked) {
    analysis::WireRecord w;
    w.time = t;
    w.key = key.reversed();
    w.seq32 = 1;
    w.ack32 = acked;
    w.flags.ack = true;
    return records.emplace_back(w);
  }

  /// Reorders the records by timestamp (stable: equal times keep their
  /// insertion order), for tests that add the two directions separately.
  void sort_by_time() {
    std::stable_sort(records.begin(), records.end(),
                     [](const analysis::WireRecord& a,
                        const analysis::WireRecord& b) {
                       return a.time < b.time;
                     });
  }

  struct Result {
    stream::FinalizedFlow flow;
    std::vector<analysis::RttSample> samples;  // the slow-start samples
  };

  Result run(const features::ExtractOptions& opt = {}) const {
    stream::FlowState state(analysis::canonical_flow_key(key));
    for (const analysis::WireRecord& w : records) state.ingest(w);
    Result out;
    out.flow = state.finalize(opt);
    const auto samples = state.slow_start_samples();
    out.samples.assign(samples.begin(), samples.end());
    return out;
  }
};

}  // namespace ccsig::testutil
