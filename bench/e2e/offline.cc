// `offline`: the two capture -> verdict library paths on one capture.
//
//   --mode analyze  FlowAnalyzer::analyze_pcap_checked (batch)
//   --mode stream   stream::analyze_pcap_stream(kMmap, jobs = 1)
//
// One warm pass, then timed passes until --seconds have elapsed (at least
// --min-passes). A pass runs from the capture path to rendered verdict
// lines. Each mode runs in its own process so run.py can read its peak RSS.
//
//   --mode traced   the per-layer run: untraced stream passes as the
//                   baseline, then the same work split at every public call
//                   into the layers. Each call is timed from outside,
//                   recorded as a span (written through obs::TraceWriter to
//                   --trace-out) and counted by the allocation hook.
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "e2e.h"
#include "obs/trace.h"
#include "pcap/cursor.h"
#include "service/verdict_log.h"
#include "stream/ingest.h"
#include "stream/stream.h"

namespace e2e {
namespace {

using ccsig::FlowAnalyzer;
using ccsig::FlowReport;
using ccsig::PcapAnalysis;

std::vector<std::string> render_all(const std::vector<FlowReport>& reports) {
  std::vector<std::string> lines;
  lines.reserve(reports.size());
  for (const FlowReport& r : reports) lines.push_back(FlowAnalyzer::render(r));
  return lines;
}

PcapAnalysis run_mode(const std::string& mode, const FlowAnalyzer& analyzer,
                      const std::string& path) {
  if (mode == "analyze") return analyzer.analyze_pcap_checked(path);
  return ccsig::stream::analyze_pcap_stream(path, analyzer, {},
                                            ccsig::pcap::CursorMode::kMmap);
}

/// Spans timed in nanoseconds around calls into the layers. Totals come
/// from the exact nanosecond times; the trace file gets whole-microsecond
/// spans, nudged so that back-to-back siblings never share a microsecond
/// (Chrome's format and tools/check_trace.py require strict nesting).
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) { spans_.reserve(capacity); }

  class Scope {
   public:
    Scope(SpanRecorder& r, const char* name, const char* cat)
        : r_(r), i_(r.spans_.size()) {
      r.spans_.push_back(Span{name, cat, now_ns(), 0});
    }
    ~Scope() { r_.spans_[i_].end = now_ns(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& r_;
    std::size_t i_;
  };

  std::map<std::string, std::int64_t> totals_ns() const {
    std::map<std::string, std::int64_t> t;
    for (const Span& s : spans_) t[s.name] += s.end - s.start;
    return t;
  }

  /// Emits every span in start order (the order they were opened).
  void write(ccsig::obs::TraceWriter& w) const {
    if (spans_.empty()) return;
    const std::int64_t epoch = spans_.front().start;
    const auto us = [epoch](std::int64_t ns) { return (ns - epoch) / 1000; };
    struct Open {
      std::size_t idx;
      std::int64_t te;
      std::int64_t last_child_te;
    };
    std::vector<std::int64_t> ts(spans_.size()), te(spans_.size());
    std::vector<Open> stack;
    std::int64_t last_top_te = -1;
    const auto close_top = [&] {
      const Open done = stack.back();
      stack.pop_back();
      te[done.idx] = done.te;
      if (stack.empty()) {
        last_top_te = done.te;
      } else {
        stack.back().last_child_te = done.te;
        stack.back().te = std::max(stack.back().te, done.te);
      }
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      while (!stack.empty() && spans_[stack.back().idx].end <= s.start) {
        close_top();
      }
      const std::int64_t prev = stack.empty() ? last_top_te
                                              : stack.back().last_child_te;
      ts[i] = std::max(us(s.start), prev + 1);
      stack.push_back(Open{i, std::max(ts[i], us(s.end)), ts[i] - 1});
    }
    while (!stack.empty()) close_top();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      w.complete(spans_[i].name, spans_[i].cat, ts[i], te[i] - ts[i]);
    }
  }

 private:
  struct Span {
    const char* name;
    const char* cat;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
};

int run_traced(const Capture& cap, const FlowAnalyzer& analyzer,
               const std::string& trace_out) {
  namespace stream = ccsig::stream;
  using ccsig::pcap::CursorMode;
  using Scope = SpanRecorder::Scope;
  Json out;
  out.str("mode", "traced");

  // Untraced baseline: the same engine call the timed stream mode makes.
  std::vector<double> untraced;
  std::string untraced_digest;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    const PcapAnalysis a = stream::analyze_pcap_stream(
        cap.pcap, analyzer, {}, CursorMode::kMmap);
    const std::vector<std::string> lines = render_all(a.reports);
    untraced.push_back(now_s() - t0);
    untraced_digest = lines_digest(lines);
  }

  const stream::StreamConfig cfg;
  SpanRecorder spans(2 * (cap.records / cfg.batch_records) + 64);

  // Traced stream pass: analyze_pcap_stream's loop, split at every call.
  std::vector<std::string> lines;
  stream::StreamStats stats;
  std::uint64_t records = 0;
  const std::uint64_t allocs_before = alloc_count();
  alloc_counting(true);
  const double t0 = now_s();
  {
    Scope pass(spans, "bench.stream_pass", "bench");
    stream::StreamEngine engine(analyzer, cfg);
    std::optional<stream::BatchedIngest> ingest;
    {
      Scope s(spans, "stream.open", "stream");
      ingest.emplace(cap.pcap, CursorMode::kMmap);
    }
    std::vector<stream::RoutedRecord> batch;
    batch.reserve(cfg.batch_records);
    for (;;) {
      std::size_t got;
      {
        Scope s(spans, "stream.fill", "stream");
        got = ingest->fill(batch, cfg.batch_records);
      }
      if (got == 0) break;
      records += got;
      {
        Scope s(spans, "stream.push", "stream");
        engine.push_batch(batch);
      }
      batch.clear();
    }
    std::vector<FlowReport> reports;
    {
      Scope s(spans, "stream.finish", "stream");
      reports = engine.finish();
    }
    {
      Scope s(spans, "core.render", "core");
      lines = render_all(reports);
    }
    stats = engine.stats();
  }
  const double traced_s = now_s() - t0;
  alloc_counting(false);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const std::string traced_digest = lines_digest(lines);

  // Traced batch pass: analyze_pcap_checked is timed whole (its internals
  // are the batch path slated for removal), then rendered.
  std::string batch_digest;
  {
    Scope pass(spans, "bench.analyze_pass", "bench");
    PcapAnalysis a;
    {
      Scope s(spans, "core.analyze_pass", "core");
      a = analyzer.analyze_pcap_checked(cap.pcap);
    }
    Scope s(spans, "core.render_batch", "core");
    batch_digest = lines_digest(render_all(a.reports));
  }

  // pcap: the cursor alone, no decode, on both backends.
  for (const CursorMode mode : {CursorMode::kMmap, CursorMode::kStream}) {
    Scope s(spans,
            mode == CursorMode::kMmap ? "pcap.read_mmap" : "pcap.read_stream",
            "pcap");
    ccsig::pcap::PcapCursor cursor(cap.pcap, mode);
    std::uint64_t n = 0;
    while (cursor.next()) ++n;
    if (n != records) out.integer("pcap_records_mismatch", 1);
  }

  // core: classify replayed over the reports' features (repeated: one
  // pass over a capture's flows takes microseconds).
  const PcapAnalysis again = stream::analyze_pcap_stream(
      cap.pcap, analyzer, {}, CursorMode::kMmap);
  constexpr int kClassifyReps = 100;
  std::uint64_t classified = 0;
  int self_verdicts = 0;
  {
    Scope s(spans, "core.classify", "core");
    for (int rep = 0; rep < kClassifyReps; ++rep) {
      for (const FlowReport& r : again.reports) {
        if (!r.features) continue;
        ++classified;
        self_verdicts += static_cast<int>(
            analyzer.classifier().classify(*r.features).verdict);
      }
    }
  }

  // service: the verdict log's append path over the rendered lines.
  const std::string log_path = cap.dir + "/traced-verdicts.log";
  std::filesystem::remove(log_path);
  {
    ccsig::service::VerdictLog log(log_path);
    Scope s(spans, "service.log_append", "service");
    for (const std::string& l : lines) log.append(l);
  }
  const bool log_ok = ccsig::service::VerdictLog::read_all(log_path) == lines;
  std::filesystem::remove(log_path);

  ccsig::obs::TraceWriter writer;
  spans.write(writer);
  write_file(trace_out, writer.to_json("bench_e2e"));

  std::string totals = "{";
  for (const auto& [name, ns] : spans.totals_ns()) {
    if (totals.size() > 1) totals += ", ";
    totals += "\"" + name + "\": " + std::to_string(ns);
  }
  totals += "}";
  out.integer("records", static_cast<std::int64_t>(records))
      .integer("flows", static_cast<std::int64_t>(lines.size()))
      .integer("classified", static_cast<std::int64_t>(classified))
      .integer("self_verdicts", self_verdicts)
      .raw("span_ns", totals)
      .integer("mismatches", static_cast<std::int64_t>(check_lines(cap, lines)))
      .str("lines_digest", traced_digest)
      .str("untraced_digest", untraced_digest)
      .str("batch_digest", batch_digest)
      .boolean("log_roundtrip_ok", log_ok)
      .num("untraced_s", median(untraced))
      .num("traced_s", traced_s)
      .integer("allocs", static_cast<std::int64_t>(allocs))
      .integer("flows_opened", static_cast<std::int64_t>(stats.flows_opened))
      .integer("evicted_fin", static_cast<std::int64_t>(stats.evicted_fin))
      .integer("evicted_idle", static_cast<std::int64_t>(stats.evicted_idle))
      .integer("evicted_lru", static_cast<std::int64_t>(stats.evicted_lru))
      .integer("evicted_forced",
               static_cast<std::int64_t>(stats.evicted_forced))
      .integer("early_classified",
               static_cast<std::int64_t>(stats.early_classified))
      .integer("peak_active_flows",
               static_cast<std::int64_t>(stats.peak_active_flows));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int cmd_offline(const std::vector<std::string>& argv) {
  const Args args(argv,
                  {"--mode", "--capture", "--seconds", "--min-passes",
                   "--trace-out"},
                  {});
  const std::string mode = args.get("--mode");
  if (!args.ok() || !args.has("--capture") ||
      (mode != "analyze" && mode != "stream" && mode != "traced") ||
      (mode == "traced") != args.has("--trace-out")) {
    std::fprintf(stderr,
                 "usage: bench_e2e offline --mode analyze|stream --capture "
                 "DIR --seconds S [--min-passes N]\n"
                 "       bench_e2e offline --mode traced --capture DIR "
                 "--trace-out FILE\n%s\n",
                 args.error().c_str());
    return 2;
  }
  const Capture cap = load_capture(args.get("--capture"));
  const FlowAnalyzer analyzer;
  if (mode == "traced") {
    return run_traced(cap, analyzer, args.get("--trace-out"));
  }

  const double budget = args.num("--seconds", 5);
  const auto min_passes =
      static_cast<std::size_t>(std::max(1.0, args.num("--min-passes", 3)));
  std::vector<std::string> lines = render_all(
      run_mode(mode, analyzer, cap.pcap).reports);  // warm pass
  const std::string digest = lines_digest(lines);
  const std::uint64_t mismatches = check_lines(cap, lines);
  std::uint64_t unstable = 0;  // passes whose lines differ from the first
  std::string error;
  std::vector<double> pass_s;
  const double start = now_s();
  while (pass_s.size() < min_passes || now_s() - start < budget) {
    const double t0 = now_s();
    const PcapAnalysis a = run_mode(mode, analyzer, cap.pcap);
    lines = render_all(a.reports);
    pass_s.push_back(now_s() - t0);
    if (a.error) error = a.error->reason;
    if (lines_digest(lines) != digest) ++unstable;
  }
  std::vector<double> rates;
  for (double s : pass_s) rates.push_back(static_cast<double>(cap.records) / s);
  Json out;
  out.str("mode", mode)
      .integer("records", static_cast<std::int64_t>(cap.records))
      .integer("flows", static_cast<std::int64_t>(lines.size()))
      .raw("pass_s", json_array(pass_s))
      .num("records_per_s", median(rates))
      .str("lines_digest", digest)
      .integer("mismatches", static_cast<std::int64_t>(mismatches))
      .integer("unstable_passes", static_cast<std::int64_t>(unstable))
      .str("error", error);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace e2e
