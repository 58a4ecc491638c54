#include "service/line_server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ccsig::service {

namespace {

// Bounds on per-client buffers in query mode. Queries are one short word,
// so an inbuf past the cap means a confused or hostile client; an outbuf
// past the cap means a client that connected, queried, and stopped
// reading. Both get disconnected instead of growing daemon memory.
constexpr std::size_t kMaxQueryLine = 4096;
constexpr std::size_t kMaxOutBuf = 4u << 20;

}  // namespace

LineServer::LineServer(const std::string& socket_path, QueryHandler handler)
    : path_(socket_path), handler_(std::move(handler)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("line server: socket path too long: " + path_);
  }
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("line server: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  ::unlink(path_.c_str());  // a stale socket file from a crashed daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("line server: cannot listen on " + path_ +
                             ": " + err);
  }
}

LineServer::~LineServer() {
  for (const Client& c : clients_) ::close(c.fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
}

void LineServer::accept_pending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN (none pending) or transient error: later
    Client c;
    c.fd = fd;
    c.id = next_id_++;
    clients_.push_back(std::move(c));
  }
}

void LineServer::poll_fds(std::vector<pollfd>& out) const {
  out.push_back({listen_fd_, POLLIN, 0});
  if (!handler_) return;
  for (const Client& c : clients_) out.push_back({c.fd, POLLIN, 0});
}

void LineServer::reap(std::size_t i) {
  ::close(clients_[i].fd);
  clients_[i] = std::move(clients_.back());
  clients_.pop_back();
  ++disconnects_;
}

void LineServer::broadcast(std::string_view line) {
  if (clients_.empty()) return;
  send_buf_.assign(line);
  send_buf_.push_back('\n');
  for (std::size_t i = 0; i < clients_.size();) {
    Client& c = clients_[i];
    const ssize_t n = ::send(c.fd, send_buf_.data(), send_buf_.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(send_buf_.size())) {
      ++i;
      continue;
    }
    if (n >= 0 || errno == EAGAIN || errno == EWOULDBLOCK) {
      // Slow subscriber: this line is lost for them, counted, daemon
      // unblocked. (A partial send also drops the remainder — line
      // protocol over a full buffer is best-effort by design.)
      ++dropped_;
      ++c.dropped;
      ++i;
      continue;
    }
    // EPIPE/ECONNRESET/anything else: the subscriber is gone.
    reap(i);
  }
}

bool LineServer::flush_out(Client& c) {
  while (!c.out.empty()) {
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      c.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return c.out.size() <= kMaxOutBuf;
    }
    return false;  // peer gone
  }
  return true;
}

std::size_t LineServer::serve_pending() {
  if (!handler_) return 0;
  std::size_t answered = 0;
  char buf[1024];
  for (std::size_t i = 0; i < clients_.size();) {
    Client& c = clients_[i];
    bool alive = true;
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      alive = false;  // orderly close (n == 0) or hard error
      break;
    }
    // Answer every complete line buffered so far.
    std::size_t nl;
    while (alive && (nl = c.in.find('\n')) != std::string::npos) {
      std::string_view q(c.in.data(), nl);
      if (!q.empty() && q.back() == '\r') q.remove_suffix(1);
      std::string body = handler_(q);
      ++queries_;
      ++answered;
      c.out += body;
      if (!c.out.empty() && c.out.back() != '\n') c.out.push_back('\n');
      c.out += ".\n";
      c.in.erase(0, nl + 1);
    }
    if (alive && c.in.size() > kMaxQueryLine) alive = false;
    if (alive) alive = flush_out(c);
    if (!alive) {
      reap(i);
      continue;
    }
    ++i;
  }
  return answered;
}

std::vector<LineServer::SubscriberStats> LineServer::subscriber_stats()
    const {
  std::vector<SubscriberStats> out;
  out.reserve(clients_.size());
  for (const Client& c : clients_) out.push_back({c.id, c.dropped});
  std::sort(out.begin(), out.end(),
            [](const SubscriberStats& a, const SubscriberStats& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace ccsig::service
