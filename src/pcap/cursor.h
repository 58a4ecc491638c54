// Zero-copy pcap record cursor with two input backends — the one pcap
// reader. It hands out spans into a window of the file instead of copying
// each record, so a single-pass engine reads any capture in O(buffer)
// memory:
//
//   kStream — refills one reusable buffer with large read(2) calls on a
//             raw descriptor: no per-record allocation, O(buffer) memory
//             regardless of capture size. Works on anything open(2) can
//             read, named pipes included (tail mode reads them
//             nonblocking, see below).
//   kMmap   — maps the whole file read-only and walks the mapping: no
//             read syscalls, no copies at all; the kernel pages data in
//             as the cursor advances (madvise SEQUENTIAL). Views stay
//             valid until the cursor is destroyed.
//   kAuto   — kMmap when the file supports it (a regular file), else
//             kStream.
//
// Both backends run the *same* code over the same windowed representation
// — only the refill step differs. next() is one record loop in two parts:
// an inline fast path that hands out a record whose header and whole body
// are already windowed and pass the size check, and an out-of-line slow
// path for everything else (refill, truncation, corruption, an incomplete
// tail, a file header still being written). Every error therefore comes
// from the slow path, so a damaged capture stops at the same byte offset
// with the same ParseException reason no matter the backend (the property
// ingest_corpus_test's mmap/stream differential pins down).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pcap/pcap_file.h"
#include "sim/time.h"

namespace ccsig::pcap {

/// One record viewed in place. `data` points into the cursor's window and
/// is invalidated by the next call to next() in kStream mode; in kMmap
/// mode it stays valid for the cursor's lifetime.
struct RecordView {
  sim::Time timestamp = 0;
  std::uint32_t orig_len = 0;
  std::span<const std::uint8_t> data;
};

/// libpcap's MAXIMUM_SNAPLEN. No capture tool stores larger records, so a
/// larger header snaplen is clamped to it: a corrupt header can then never
/// authorize a multi-gigabyte record buffer.
inline constexpr std::uint32_t kMaxSnaplen = 262144;

enum class CursorMode {
  kStream,  // buffered sequential reads
  kMmap,    // map the file; throws ParseException if mapping fails
  kAuto,    // kMmap when possible, silently falling back to kStream
};

class PcapCursor {
 public:
  /// Opens and validates the file header. Throws runtime::ParseException
  /// (file, byte offset, reason) on a missing or malformed file.
  ///
  /// `tail` opts into tail-past-EOF reading for a capture that is still
  /// being written (ccsigd's growing-file sources): a record whose final
  /// bytes are not on disk yet — or a file header still shorter than 24
  /// bytes — is an *incomplete tail*, not corruption. next() then returns
  /// nullopt without consuming anything and a later call retries the read,
  /// resuming exactly where the partial record starts once the writer has
  /// appended the rest. Genuine corruption (bad magic, absurd incl_len)
  /// still throws. Tail mode always uses the buffered kStream backend
  /// (a fixed-size mapping cannot see appended bytes) and opens the file
  /// O_NONBLOCK, so a named pipe with nothing to read (EAGAIN) is the same
  /// caught-up state as a regular file's EOF.
  explicit PcapCursor(const std::string& path,
                      CursorMode mode = CursorMode::kStream,
                      bool tail = false);
  PcapCursor(const PcapCursor&) = delete;
  PcapCursor& operator=(const PcapCursor&) = delete;
  ~PcapCursor();

  /// Next record, or nullopt at clean end of file — or, in tail mode, at
  /// an incomplete tail (see incomplete_tail() to distinguish). The
  /// returned view is valid until the next call (kStream) or until
  /// destruction (kMmap).
  std::optional<RecordView> next() {
    // Fast path: a clean record already whole in the window. The file
    // header is parsed (always, outside tail mode), the record fits the
    // size bound, and its body is windowed; nothing here can fail.
    const std::size_t avail = end_ - pos_;
    if (header_ready_ && avail >= sizeof(RecordHeader)) {
      const std::uint8_t* p = window() + pos_;
      RecordHeader rec;
      std::memcpy(&rec, p, sizeof(rec));
      const std::size_t total = sizeof(rec) + std::size_t{rec.incl_len};
      if (rec.incl_len <= max_record_bytes() && avail >= total) {
#if defined(__GNUC__) || defined(__clang__)
        // The next record's header: in kMmap mode a page the kernel may
        // not have faulted in yet; in kStream mode hot buffer memory.
        __builtin_prefetch(p + total);
#endif
        // incomplete_tail_ is already false: only the slow path sets it,
        // when the window lacks a whole record, and only the slow path
        // grows the window.
        pos_ += total;
        return RecordView{
            static_cast<sim::Time>(rec.ts_sec) * sim::kSecond +
                static_cast<sim::Time>(rec.ts_usec) * sim::kMicrosecond,
            rec.orig_len, {p + sizeof(rec), rec.incl_len}};
      }
    }
    return next_slow();
  }

  bool tail() const { return tail_; }

  /// Tail mode only: true when the last next() stopped inside a partial
  /// record (or the still-growing file header) rather than at a clean
  /// record boundary. Either way the stream may grow; retry next() later.
  bool incomplete_tail() const { return incomplete_tail_; }

  /// Tail mode only: false until the 24-byte pcap file header has been
  /// fully written and validated.
  bool header_ready() const { return header_ready_; }

  /// The header's snap length, clamped to libpcap's kMaxSnaplen.
  std::uint32_t snaplen() const { return snaplen_; }

  /// Largest incl_len a record may claim before it counts as corruption:
  /// the snap length plus slack for writers that overshoot it. 64-bit, so
  /// no header value can wrap it.
  std::uint64_t max_record_bytes() const {
    return std::uint64_t{snaplen_} + 65536u;
  }
  std::uint32_t linktype() const { return linktype_; }

  /// The kStream backend's read descriptor (-1 in kMmap mode): what a
  /// caller waits on for readiness when the capture is a named pipe.
  int fd() const { return fd_; }

  /// The backend actually in use (kAuto resolves at construction).
  CursorMode mode() const { return mmap_base_ ? CursorMode::kMmap
                                              : CursorMode::kStream; }

  /// Byte offset of the next unread position (for error reporting).
  std::uint64_t offset() const { return window_offset_ + pos_; }

 private:
  [[noreturn]] void fail(std::string reason) const;

  /// Closes the descriptor and unmaps the file.
  void release();

  /// next()'s out-of-line part: refills the window and validates,
  /// producing every error, incomplete tail and end of file. A record it
  /// finds whole and valid it hands back to the fast path.
  std::optional<RecordView> next_slow();

  /// Parses the 24-byte file header once enough bytes exist. Returns false
  /// (tail mode only) when the header is still incomplete; throws on a bad
  /// magic or, in non-tail mode, on truncation.
  bool parse_file_header();

  /// Ensures at least `need` contiguous unconsumed bytes are windowed, or
  /// as many as the file still has. Returns the available byte count. In
  /// kMmap mode the window is the whole file and this is a subtraction.
  std::size_t ensure(std::size_t need);

  /// Tries to map the file; returns false (leaving the cursor in kStream
  /// state) when the file is not a mappable regular file.
  bool try_mmap();

  const std::uint8_t* window() const {
    return mmap_base_ ? mmap_base_ : buf_.data();
  }

  std::string path_;
  int fd_ = -1;  // kStream backend only
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;   // first unconsumed byte in the window
  std::size_t end_ = 0;   // one past the last valid byte in the window
  bool eof_ = false;      // underlying file exhausted
  const std::uint8_t* mmap_base_ = nullptr;  // non-null in kMmap mode
  std::size_t mmap_len_ = 0;
  std::uint32_t snaplen_ = 0;
  std::uint32_t linktype_ = 0;
  std::uint64_t window_offset_ = 0;  // file offset of the window's byte 0
  bool tail_ = false;
  bool incomplete_tail_ = false;
  bool header_ready_ = false;
};

}  // namespace ccsig::pcap
