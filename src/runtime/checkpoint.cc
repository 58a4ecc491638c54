#include "runtime/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "runtime/atomic_file.h"
#include "runtime/cli_args.h"

namespace ccsig::runtime {
namespace {
constexpr char kHeaderPrefix[] = "# checkpoint: ";
}  // namespace

std::map<std::size_t, std::string> ShardCheckpoint::load(
    const std::string& path, const std::string& fingerprint) {
  std::map<std::size_t, std::string> rows;
  std::ifstream in(path);
  if (!in) return rows;
  std::string line;
  if (!std::getline(in, line) || line.rfind(kHeaderPrefix, 0) != 0 ||
      line.substr(sizeof(kHeaderPrefix) - 1) != fingerprint) {
    return rows;  // missing header or stale fingerprint: ignore entirely
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;  // damaged entry: skip
    std::size_t slot = 0;
    if (!parse_count(line.substr(0, tab).c_str(), slot)) continue;
    rows[slot] = line.substr(tab + 1);
  }
  return rows;
}

ShardCheckpoint::ShardCheckpoint(std::string path, std::string fingerprint,
                                 int flush_every)
    : path_(std::move(path)),
      fingerprint_(std::move(fingerprint)),
      flush_every_(flush_every < 1 ? 1 : flush_every) {}

void ShardCheckpoint::restore(const std::map<std::size_t, std::string>& rows) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [slot, row] : rows) rows_[slot] = row;
}

void ShardCheckpoint::record(std::size_t slot, std::string row,
                             const FaultPlan* faults) {
  std::lock_guard<std::mutex> lk(mu_);
  const int attempt = ++record_attempts_[slot];
  if (faults && faults->io_should_fail(slot, attempt)) {
    throw TransientError("injected checkpoint I/O failure (slot " +
                         std::to_string(slot) + ", attempt " +
                         std::to_string(attempt) + ")");
  }
  rows_[slot] = std::move(row);
  if (++dirty_ >= flush_every_) flush_locked();
}

void ShardCheckpoint::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  flush_locked();
}

void ShardCheckpoint::flush_locked() {
  dirty_ = 0;
  std::ostringstream out;
  out << kHeaderPrefix << fingerprint_ << "\n";
  for (const auto& [slot, row] : rows_) out << slot << '\t' << row << "\n";
  try {
    write_file_atomic(path_, out.str());
  } catch (...) {
    ++flush_failures_;  // best effort: the campaign outranks its checkpoint
  }
}

void ShardCheckpoint::remove() {
  std::lock_guard<std::mutex> lk(mu_);
  std::error_code ignore;
  std::filesystem::remove(path_, ignore);
  std::filesystem::remove(path_ + ".tmp", ignore);
}

std::size_t ShardCheckpoint::rows_recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rows_.size();
}

std::size_t ShardCheckpoint::flush_failures() const {
  std::lock_guard<std::mutex> lk(mu_);
  return flush_failures_;
}

}  // namespace ccsig::runtime
