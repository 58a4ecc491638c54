#include "mlab/rowstore.h"

#include <array>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "runtime/parse_error.h"

namespace ccsig::mlab {
namespace {

constexpr char kMagic[4] = {'C', 'C', 'R', 'S'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kBlockMagic = 0x314B4C42;  // "BLK1"
constexpr std::size_t kBlockHeaderBytes = 16;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t double_bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double bits_double(std::uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

/// First-appearance-order string dictionary for one column.
class Dict {
 public:
  std::uint8_t id_of(const std::string& s) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i] == s) return static_cast<std::uint8_t>(i);
    }
    if (entries_.size() >= 255 || s.size() > 255) {
      throw std::runtime_error("row store dictionary overflow");
    }
    entries_.push_back(s);
    return static_cast<std::uint8_t>(entries_.size() - 1);
  }
  void encode(std::vector<std::uint8_t>& out) const {
    out.push_back(static_cast<std::uint8_t>(entries_.size()));
    for (const std::string& s : entries_) {
      out.push_back(static_cast<std::uint8_t>(s.size()));
      out.insert(out.end(), s.begin(), s.end());
    }
  }

 private:
  std::vector<std::string> entries_;
};

std::vector<std::uint8_t> encode_block_payload(
    const std::vector<NdtObservation>& rows) {
  const std::size_t n = rows.size();
  Dict transit, site, isp;
  std::vector<std::uint8_t> tid(n), sid(n), iid(n);
  for (std::size_t i = 0; i < n; ++i) {
    tid[i] = transit.id_of(rows[i].transit);
    sid[i] = site.id_of(rows[i].site);
    iid[i] = isp.id_of(rows[i].isp);
  }
  std::vector<std::uint8_t> out;
  out.reserve(n * 49 + 64);
  transit.encode(out);
  site.encode(out);
  isp.encode(out);
  out.insert(out.end(), tid.begin(), tid.end());
  out.insert(out.end(), sid.begin(), sid.end());
  out.insert(out.end(), iid.begin(), iid.end());
  for (const auto& r : rows) {
    out.push_back(static_cast<std::uint8_t>(r.month));
  }
  for (const auto& r : rows) {
    out.push_back(static_cast<std::uint8_t>(r.hour));
  }
  for (const auto& r : rows) {
    out.push_back(static_cast<std::uint8_t>((r.has_features ? 1 : 0) |
                                            (r.passes_filters ? 2 : 0) |
                                            (r.truth_external ? 4 : 0)));
  }
  for (const auto& r : rows) put_u64(out, double_bits(r.plan_mbps));
  for (const auto& r : rows) put_u64(out, double_bits(r.throughput_mbps));
  for (const auto& r : rows) put_u64(out, double_bits(r.ss_tput_mbps));
  for (const auto& r : rows) put_u64(out, double_bits(r.norm_diff));
  for (const auto& r : rows) put_u64(out, double_bits(r.cov));
  return out;
}

/// Decodes one block payload into `rows`. Returns false (leaving `rows`
/// unspecified) on any structural inconsistency — the caller treats the
/// block, and everything after it, as an uncommitted tail.
bool decode_block_payload(const std::uint8_t* p, std::size_t len,
                          std::uint32_t nrows,
                          std::vector<NdtObservation>& rows) {
  const std::uint8_t* end = p + len;
  auto decode_dict = [&](std::vector<std::string>& dict) -> bool {
    if (p >= end) return false;
    const std::uint8_t n = *p++;
    dict.clear();
    for (std::uint8_t i = 0; i < n; ++i) {
      if (p >= end) return false;
      const std::uint8_t slen = *p++;
      if (p + slen > end) return false;
      dict.emplace_back(reinterpret_cast<const char*>(p), slen);
      p += slen;
    }
    return true;
  };
  std::vector<std::string> transit, site, isp;
  if (!decode_dict(transit) || !decode_dict(site) || !decode_dict(isp)) {
    return false;
  }
  const std::size_t n = nrows;
  // 6 byte columns + 5 double columns.
  if (static_cast<std::size_t>(end - p) != n * 6 + n * 5 * 8) return false;
  const std::uint8_t* tid = p;
  const std::uint8_t* sid = tid + n;
  const std::uint8_t* iid = sid + n;
  const std::uint8_t* month = iid + n;
  const std::uint8_t* hour = month + n;
  const std::uint8_t* flags = hour + n;
  const std::uint8_t* doubles = flags + n;
  rows.clear();
  rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    NdtObservation& r = rows[i];
    if (tid[i] >= transit.size() || sid[i] >= site.size() ||
        iid[i] >= isp.size()) {
      return false;
    }
    r.transit = transit[tid[i]];
    r.site = site[sid[i]];
    r.isp = isp[iid[i]];
    r.month = month[i];
    r.hour = hour[i];
    r.has_features = flags[i] & 1;
    r.passes_filters = flags[i] & 2;
    r.truth_external = flags[i] & 4;
    r.plan_mbps = bits_double(get_u64(doubles + (0 * n + i) * 8));
    r.throughput_mbps = bits_double(get_u64(doubles + (1 * n + i) * 8));
    r.ss_tput_mbps = bits_double(get_u64(doubles + (2 * n + i) * 8));
    r.norm_diff = bits_double(get_u64(doubles + (3 * n + i) * 8));
    r.cov = bits_double(get_u64(doubles + (4 * n + i) * 8));
  }
  return true;
}

/// Reads and validates the file header. Returns the fingerprint and sets
/// `*header_bytes`; throws ParseException on damage (a store whose header
/// is unreadable has no committed prefix to trust).
std::string read_header(std::ifstream& in, const std::string& path,
                        std::uint64_t* header_bytes) {
  char magic[4];
  if (!in.read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    runtime::throw_parse_error(path, 0, "byte", "not a ccsig row store");
  }
  std::uint8_t word[8];
  if (!in.read(reinterpret_cast<char*>(word), 8)) {
    runtime::throw_parse_error(path, 4, "byte", "truncated row store header");
  }
  const std::uint32_t version = get_u32(word);
  if (version != kVersion) {
    runtime::throw_parse_error(path, 4, "byte",
                               "unsupported row store version " +
                                   std::to_string(version));
  }
  const std::uint32_t fp_len = get_u32(word + 4);
  std::string fingerprint(fp_len, '\0');
  if (fp_len > 0 && !in.read(fingerprint.data(), fp_len)) {
    runtime::throw_parse_error(path, 12, "byte",
                               "truncated row store fingerprint");
  }
  *header_bytes = 12 + fp_len;
  return fingerprint;
}

/// Walks committed blocks from the current stream position, invoking
/// `on_block` (when non-null) with each decoded block. Stops at the first
/// torn or corrupt block — by the append-only contract everything at and
/// after it is uncommitted tail.
RowStoreInfo scan_blocks(
    std::ifstream& in, const std::string& fingerprint,
    std::uint64_t header_bytes,
    const std::function<void(const std::vector<NdtObservation>&)>& on_block) {
  RowStoreInfo info;
  info.fingerprint = fingerprint;
  info.committed_bytes = header_bytes;
  std::vector<std::uint8_t> payload;
  std::vector<NdtObservation> rows;
  for (;;) {
    std::uint8_t hdr[kBlockHeaderBytes];
    if (!in.read(reinterpret_cast<char*>(hdr), kBlockHeaderBytes)) break;
    if (get_u32(hdr) != kBlockMagic) break;
    const std::uint32_t nrows = get_u32(hdr + 4);
    const std::uint32_t payload_bytes = get_u32(hdr + 8);
    const std::uint32_t want_crc = get_u32(hdr + 12);
    payload.resize(payload_bytes);
    if (payload_bytes > 0 &&
        !in.read(reinterpret_cast<char*>(payload.data()), payload_bytes)) {
      break;
    }
    if (crc32(payload.data(), payload.size()) != want_crc) break;
    if (on_block) {
      if (!decode_block_payload(payload.data(), payload.size(), nrows, rows)) {
        break;
      }
      on_block(rows);
    }
    info.rows += nrows;
    info.blocks += 1;
    info.committed_bytes += kBlockHeaderBytes + payload_bytes;
  }
  return info;
}

}  // namespace

RowStoreInfo row_store_info(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    runtime::throw_parse_error(path, 0, "byte", "cannot read row store");
  }
  std::uint64_t header_bytes = 0;
  const std::string fingerprint = read_header(in, path, &header_bytes);
  return scan_blocks(in, fingerprint, header_bytes, nullptr);
}

RowStoreWriter::RowStoreWriter(const std::string& path,
                               const std::string& fingerprint)
    : path_(path) {
  namespace fs = std::filesystem;
  if (fs::exists(path)) {
    const RowStoreInfo info = row_store_info(path);
    if (info.fingerprint != fingerprint) {
      runtime::throw_parse_error(
          path, 12, "byte",
          "row store fingerprint mismatch (have \"" + info.fingerprint +
              "\", want \"" + fingerprint + "\")");
    }
    // Drop any torn tail from a kill mid-append, so we always resume
    // writing at a clean block boundary.
    if (fs::file_size(path) > info.committed_bytes) {
      fs::resize_file(path, info.committed_bytes);
    }
    rows_ = info.rows;
    out_.open(path, std::ios::binary | std::ios::app);
  } else {
    out_.open(path, std::ios::binary);
    if (out_) {
      std::vector<std::uint8_t> hdr;
      hdr.insert(hdr.end(), kMagic, kMagic + 4);
      put_u32(hdr, kVersion);
      put_u32(hdr, static_cast<std::uint32_t>(fingerprint.size()));
      hdr.insert(hdr.end(), fingerprint.begin(), fingerprint.end());
      out_.write(reinterpret_cast<const char*>(hdr.data()),
                 static_cast<std::streamsize>(hdr.size()));
      out_.flush();
    }
  }
  if (!out_) {
    throw std::runtime_error("cannot open row store for append: " + path_);
  }
}

void RowStoreWriter::append_block(const std::vector<NdtObservation>& rows) {
  if (rows.empty()) return;
  const std::vector<std::uint8_t> payload = encode_block_payload(rows);
  std::vector<std::uint8_t> hdr;
  hdr.reserve(kBlockHeaderBytes);
  put_u32(hdr, kBlockMagic);
  put_u32(hdr, static_cast<std::uint32_t>(rows.size()));
  put_u32(hdr, static_cast<std::uint32_t>(payload.size()));
  put_u32(hdr, crc32(payload.data(), payload.size()));
  out_.write(reinterpret_cast<const char*>(hdr.data()),
             static_cast<std::streamsize>(hdr.size()));
  out_.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("row store append failed: " + path_);
  }
  rows_ += rows.size();
}

std::uint64_t for_each_row(
    const std::string& path,
    const std::function<void(const NdtObservation&)>& fn,
    std::string* fingerprint_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    runtime::throw_parse_error(path, 0, "byte", "cannot read row store");
  }
  std::uint64_t header_bytes = 0;
  const std::string fingerprint = read_header(in, path, &header_bytes);
  if (fingerprint_out) *fingerprint_out = fingerprint;
  const RowStoreInfo info =
      scan_blocks(in, fingerprint, header_bytes,
                  [&fn](const std::vector<NdtObservation>& rows) {
                    for (const NdtObservation& r : rows) fn(r);
                  });
  return info.rows;
}

void export_rows_csv(const std::string& store_path,
                     const std::string& csv_path) {
  namespace fs = std::filesystem;
  // Stream to a sibling temp file and rename, matching write_file_atomic's
  // crash semantics without materializing a million-row string.
  const std::string tmp = csv_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) {
      throw std::runtime_error("cannot write csv export: " + tmp);
    }
    std::string fingerprint;
    std::ifstream in(store_path, std::ios::binary);
    if (!in) {
      runtime::throw_parse_error(store_path, 0, "byte",
                                 "cannot read row store");
    }
    std::uint64_t header_bytes = 0;
    fingerprint = read_header(in, store_path, &header_bytes);
    out << kObservationRows.preamble(fingerprint);
    scan_blocks(in, fingerprint, header_bytes,
                [&out](const std::vector<NdtObservation>& rows) {
                  for (const NdtObservation& r : rows) {
                    out << format_observation_row(r) << "\n";
                  }
                });
    out.flush();
    if (!out) {
      throw std::runtime_error("csv export write failed: " + tmp);
    }
  }
  fs::rename(tmp, csv_path);
}

}  // namespace ccsig::mlab
