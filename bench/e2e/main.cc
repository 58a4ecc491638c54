// bench_e2e — the measuring program of the end-to-end benchmark
// (bench/e2e/run.py runs it).
//
// Usage:
//   bench_e2e gen     --workload NAME --seed N --inputs DIR [--smoke]
//   bench_e2e offline --mode analyze|stream --capture DIR --seconds S
//                     [--min-passes N]
//   bench_e2e offline --mode traced --capture DIR --trace-out FILE
//   bench_e2e daemon  --ccsigd BIN --capture DIR --workdir DIR
//                     --low-rate R --high-rate R [--saturation-reps N]
//   bench_e2e repro   --workload NAME --inputs DIR --workdir DIR
//                     --seconds S [--smoke]
//
// Each subcommand prints one JSON object on stdout. Exit codes: 0 success
// (the JSON reports any failed check), 2 usage error, 4 internal error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "e2e.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s gen|offline|daemon|repro [options]\n", argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "gen") return e2e::cmd_gen(args);
    if (cmd == "offline") return e2e::cmd_offline(args);
    if (cmd == "daemon") return e2e::cmd_daemon(args);
    if (cmd == "repro") return e2e::cmd_repro(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", cmd.c_str(), e.what());
    return 4;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
  return 2;
}
