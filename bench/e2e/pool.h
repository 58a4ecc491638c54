// Template pool: one simulated testbed flow per grid point, captured at
// server1 and closed with a FIN handshake. `gen` replicates templates
// into workload captures; `repro` re-simulates some of them and checks the
// bytes against the pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "e2e.h"
#include "testbed/config.h"
#include "testbed/experiment.h"

namespace e2e {

struct TemplateSpec {
  int id = 0;
  bool external = false;
  std::string cc;
  double rate_mbps = 0;
  double buffer_ms = 0;
};

/// The recipe's grid in a fixed order: scenario, cc, rate, buffer.
std::vector<TemplateSpec> pool_specs(const Recipe& r);

/// Testbed settings of one template: the committed sweep's access latency
/// and loss, and a simulator seed fixed by the template id and `attempt`.
ccsig::testbed::TestbedConfig template_config(const Recipe& r,
                                              const TemplateSpec& s,
                                              int attempt);

/// One simulated template flow as pcap bytes (file header included),
/// timestamps rebased so the first record is at 0 us.
struct TemplateFlow {
  int attempt = 0;
  std::string pcap;
  std::uint64_t records = 0;
  /// Records up to and including the first retransmission (the paper's
  /// slow-start period); all records when the flow never retransmitted.
  std::uint64_t slow_start_records = 0;
  std::uint32_t client_ip = 0;  // IPv4 of the client side, as written
  double simulated_s = 0;       // simulated time the run covered
};

/// Runs the template's testbed experiment with a tap on server1 and
/// appends the closing FIN handshake. `result_out` (nullable) receives the
/// experiment's TestResult.
TemplateFlow simulate_template(const Recipe& r, const TemplateSpec& s,
                               int attempt,
                               ccsig::testbed::TestResult* result_out);

/// Pool row as stored in templates.tsv.
struct PoolEntry {
  TemplateSpec spec;
  int attempt = 0;  // simulator-seed attempt that produced a verdict
  std::uint64_t records = 0;
  std::uint64_t slow_start_records = 0;
  std::uint32_t client_ip = 0;
  std::string digest;    // Digest of the template's pcap bytes
  std::string ref_line;  // reference verdict, key stripped
};

/// Loads (or simulates and stores) the recipe's pool under `inputs_dir`.
/// Returns the pool directory; `entries` receives its rows.
std::string ensure_pool(const Recipe& r, const std::string& inputs_dir,
                        std::vector<PoolEntry>& entries);

}  // namespace e2e
