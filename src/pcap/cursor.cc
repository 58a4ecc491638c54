#include "pcap/cursor.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "runtime/parse_error.h"

namespace ccsig::pcap {
namespace {

constexpr std::size_t kChunkBytes = 256 * 1024;

}  // namespace

void PcapCursor::fail(std::string reason) const {
  runtime::throw_parse_error(path_, offset(), "byte", std::move(reason));
}

bool PcapCursor::try_mmap() {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  if (st.st_size == 0) {
    // An empty regular file needs no mapping: an empty window reproduces
    // the streamed path's "truncated file header" error exactly.
    ::close(fd);
    static const std::uint8_t kEmptyWindow = 0;
    mmap_base_ = &kEmptyWindow;
    mmap_len_ = 0;
    end_ = 0;
    eof_ = true;
    return true;
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                      PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return false;
#ifdef POSIX_MADV_SEQUENTIAL
  ::posix_madvise(base, static_cast<std::size_t>(st.st_size),
                  POSIX_MADV_SEQUENTIAL);
#endif
  mmap_base_ = static_cast<const std::uint8_t*>(base);
  mmap_len_ = static_cast<std::size_t>(st.st_size);
  end_ = mmap_len_;  // the window is the whole file
  eof_ = true;
  return true;
}

PcapCursor::~PcapCursor() { release(); }

void PcapCursor::release() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (mmap_base_ && mmap_len_ > 0) {
    ::munmap(const_cast<std::uint8_t*>(mmap_base_), mmap_len_);
  }
  mmap_base_ = nullptr;
}

std::size_t PcapCursor::ensure(std::size_t need) {
  if (end_ - pos_ >= need) return end_ - pos_;
  if (mmap_base_) return end_ - pos_;  // the whole file is the window
  // Compact: move the unconsumed tail to the front of the buffer.
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    window_offset_ += pos_;
    pos_ = 0;
  }
  // A record larger than the buffer (legal: snaplen-sized bodies) forces a
  // one-time growth; steady state never reallocates.
  if (need > buf_.size()) buf_.resize(need);
  while (!eof_ && end_ - pos_ < need) {
    const ssize_t n = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
    if (n > 0) {
      end_ += static_cast<std::size_t>(n);
    } else if (n == 0 || errno == EAGAIN || errno == EWOULDBLOCK) {
      // End of file, or (tail mode) a pipe with nothing to read yet.
      eof_ = true;
    } else if (errno != EINTR) {
      fail(std::string("read failed: ") + std::strerror(errno));
    }
  }
  return end_ - pos_;
}

PcapCursor::PcapCursor(const std::string& path, CursorMode mode, bool tail)
    : path_(path), tail_(tail) {
  // A fixed-size mapping cannot see bytes appended after construction, so
  // tailing always takes the buffered backend.
  if (tail_) mode = CursorMode::kStream;
  if (mode != CursorMode::kStream) {
    if (!try_mmap() && mode == CursorMode::kMmap) {
      fail("cannot mmap pcap for reading");
    }
  }
  if (!mmap_base_) {
    // O_NONBLOCK only matters for a named pipe: its open does not wait for
    // a writer, and a read with nothing buffered returns EAGAIN.
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | (tail_ ? O_NONBLOCK : 0));
    if (fd_ < 0) fail("cannot open pcap for reading");
    buf_.resize(kChunkBytes);
  }
  try {
    if (!parse_file_header()) incomplete_tail_ = true;
  } catch (...) {
    release();  // no destructor runs for a constructor that throws
    throw;
  }
}

bool PcapCursor::parse_file_header() {
  FileHeader hdr;
  const std::size_t got = ensure(sizeof(hdr));
  if (got < sizeof(hdr)) {
    if (tail_) return false;  // writer has not finished the header yet
    fail("truncated file header (need " + std::to_string(sizeof(hdr)) +
         " bytes, got " + std::to_string(got) + ")");
  }
  std::memcpy(&hdr, window() + pos_, sizeof(hdr));
  if (hdr.magic != kPcapMagic) {
    fail("not a (little-endian, µs) pcap file: bad magic");
  }
  pos_ += sizeof(hdr);
  snaplen_ = std::min(hdr.snaplen, kMaxSnaplen);
  linktype_ = hdr.linktype;
  header_ready_ = true;
  return true;
}

std::optional<RecordView> PcapCursor::next_slow() {
  if (tail_) {
    incomplete_tail_ = false;
    // Forget the end a short read found, so ensure() reads the (possibly
    // grown) file again.
    eof_ = false;
    if (!header_ready_ && !parse_file_header()) {
      incomplete_tail_ = true;
      return std::nullopt;
    }
  }
  RecordHeader rec;
  const std::size_t have = ensure(sizeof(rec));
  if (have < sizeof(rec)) {
    if (tail_) {
      incomplete_tail_ = have != 0;  // mid-header vs. clean record boundary
      return std::nullopt;
    }
    if (have == 0) return std::nullopt;  // clean end of file
    fail("truncated record header (need " + std::to_string(sizeof(rec)) +
         " bytes, got " + std::to_string(have) + ")");
  }
  std::memcpy(&rec, window() + pos_, sizeof(rec));
  // A snaplen-exceeding capture length cannot have been written by any
  // sane writer; treat it as corruption rather than allocating blindly —
  // tail mode included, since no amount of waiting repairs a bad header.
  if (rec.incl_len > max_record_bytes()) {
    fail("corrupt record header: incl_len " + std::to_string(rec.incl_len) +
         " exceeds snaplen " + std::to_string(snaplen_));
  }
  // Peek-then-consume: nothing advances until the header AND body are both
  // windowed, so a tail-mode retry resumes at the same record boundary.
  const std::size_t need =
      sizeof(rec) + static_cast<std::size_t>(rec.incl_len);
  const std::size_t avail = ensure(need);
  if (avail < need) {
    if (tail_) {
      incomplete_tail_ = true;
      return std::nullopt;
    }
    // A truncated body is reported at the offset of the body itself (the
    // header was read fine), with the count of body bytes that exist.
    pos_ += sizeof(rec);
    fail("truncated record body (need " + std::to_string(rec.incl_len) +
         " bytes, got " + std::to_string(avail - sizeof(rec)) + ")");
  }
  // The whole record is windowed and valid now: the fast path takes it.
  return next();
}

}  // namespace ccsig::pcap
