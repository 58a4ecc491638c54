// The campaign cache CSV codec: a strict field cursor with structured
// errors, and the one save/load pair every campaign's cache goes through.
//
// The sweep/campaign cache loaders used to pull fields with `stream >>`
// and raw std::stod — malformed input either threw a bare exception
// straight through main() or, worse, silently misparsed ("12abc" -> 12).
// CsvRow converts one line field-by-field and reports every defect as a
// runtime::ParseException carrying the file, 1-based line number, and a
// reason naming the offending field.
//
// A cache CSV is an optional `# options: <fingerprint>` line, the
// campaign's header line, then one row per line. RowFormat describes one
// campaign's rows; save_rows_csv / load_rows_csv are the only writer and
// reader of that layout.
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/atomic_file.h"
#include "runtime/parse_error.h"

namespace ccsig::runtime {

class CsvRow {
 public:
  CsvRow(const std::string& line, std::string file, std::uint64_t line_no)
      : line_(line), file_(std::move(file)), line_no_(line_no) {}

  std::string next_string() {
    if (pos_ == std::string::npos) {
      fail("missing field " + std::to_string(field_ + 1));
    }
    const std::size_t comma = line_.find(',', pos_);
    std::string field;
    if (comma == std::string::npos) {
      field = line_.substr(pos_);
      pos_ = std::string::npos;
    } else {
      field = line_.substr(pos_, comma - pos_);
      pos_ = comma + 1;
    }
    ++field_;
    return field;
  }

  double next_double() {
    const std::string field = next_string();
    try {
      std::size_t used = 0;
      const double v = std::stod(field, &used);
      if (used != field.size()) {
        fail("field " + std::to_string(field_) +
             ": trailing garbage in number '" + field + "'");
      }
      return v;
    } catch (const ParseException&) {
      throw;
    } catch (...) {
      fail("field " + std::to_string(field_) + ": not a number: '" + field +
           "'");
    }
  }

  int next_int() {
    const std::string field = next_string();
    try {
      std::size_t used = 0;
      const int v = std::stoi(field, &used);
      if (used != field.size()) {
        fail("field " + std::to_string(field_) +
             ": trailing garbage in integer '" + field + "'");
      }
      return v;
    } catch (const ParseException&) {
      throw;
    } catch (...) {
      fail("field " + std::to_string(field_) + ": not an integer: '" +
           field + "'");
    }
  }

  bool next_bool01() {
    const std::string field = next_string();
    if (field == "0") return false;
    if (field == "1") return true;
    fail("field " + std::to_string(field_) + ": expected 0 or 1, got '" +
         field + "'");
  }

  /// Call after the last field to reject rows with extra columns.
  void expect_end() {
    if (pos_ != std::string::npos) {
      fail("unexpected extra fields after field " + std::to_string(field_));
    }
  }

  [[noreturn]] void fail(const std::string& reason) {
    throw_parse_error(file_, line_no_, "line", reason);
  }

 private:
  const std::string& line_;
  std::string file_;
  std::uint64_t line_no_;
  std::size_t pos_ = 0;
  int field_ = 0;
};

/// Prefix of the optional first line carrying the campaign fingerprint.
inline constexpr char kFingerprintPrefix[] = "# options: ";

/// One campaign's cache row layout. `format` is the one formatter behind
/// the cache CSV, the shard checkpoint and the row-store export: rows that
/// are byte-identical everywhere are what make kill/resume reproducible.
template <typename Row>
struct RowFormat {
  const char* campaign;  // names the campaign in parse errors
  const char* header;
  std::string (*format)(const Row&);
  /// Inverse of `format`; malformed input raises ParseException against
  /// (`file`, `line_no`).
  Row (*parse)(const std::string& line, const std::string& file,
               std::uint64_t line_no);

  /// The lines that open a cache CSV: the fingerprint (when non-empty)
  /// and the header.
  std::string preamble(const std::string& fingerprint) const {
    std::string out;
    if (!fingerprint.empty()) {
      out += kFingerprintPrefix + fingerprint + "\n";
    }
    return out + header + "\n";
  }
};

/// Writes the rows atomically (temp file + rename), with `fingerprint` as
/// the leading `# options:` line when non-empty.
template <typename Row>
void save_rows_csv(const std::string& path, const std::vector<Row>& rows,
                   const RowFormat<Row>& fmt,
                   const std::string& fingerprint) {
  std::ostringstream out;
  out << fmt.preamble(fingerprint);
  for (const Row& r : rows) out << fmt.format(r) << "\n";
  write_file_atomic(path, out.str());
}

/// Reads a cache CSV with or without the fingerprint line; when
/// `fingerprint_out` is non-null it receives the fingerprint ("" for
/// legacy files). Malformed input raises ParseException (file, line,
/// reason).
template <typename Row>
std::vector<Row> load_rows_csv(const std::string& path,
                               const RowFormat<Row>& fmt,
                               std::string* fingerprint_out) {
  std::ifstream in(path);
  if (!in) {
    throw_parse_error(path, 0, "line",
                      std::string("cannot read ") + fmt.campaign + " csv");
  }
  std::string line;
  std::string fingerprint;
  std::uint64_t line_no = 1;
  if (!std::getline(in, line)) {
    throw_parse_error(path, line_no, "line",
                      "empty file (expected csv header)");
  }
  if (line.rfind(kFingerprintPrefix, 0) == 0) {
    fingerprint = line.substr(sizeof(kFingerprintPrefix) - 1);
    ++line_no;
    if (!std::getline(in, line)) line.clear();
  }
  if (line != fmt.header) {
    throw_parse_error(path, line_no, "line",
                      std::string("unrecognized ") + fmt.campaign +
                          " csv header");
  }
  if (fingerprint_out) *fingerprint_out = fingerprint;
  std::vector<Row> rows;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    rows.push_back(fmt.parse(line, path, line_no));
  }
  return rows;
}

}  // namespace ccsig::runtime
