// Unix-domain line-protocol server: lossy broadcast and/or one-line
// query answering over the same nonblocking socket machinery.
//
// Broadcast mode (ccsigd's live verdict feed): subscribers connect to a
// SOCK_STREAM AF_UNIX socket and receive one '\n'-terminated line per
// verdict plus periodic metrics lines. The daemon never blocks on a
// subscriber — sends are nonblocking, and a subscriber whose buffer is
// full simply loses lines (each loss counted per subscriber and in
// total). The verdict LOG is the durable, complete record; the socket is
// the lossy realtime view. Disconnects are detected on send or read and
// reaped (each reap counted).
//
// Query mode (ccsigd's admin endpoint): construct with a QueryHandler
// and call serve_pending() from the owning loop. Clients send one
// '\n'-terminated query line; the server replies with the handler's
// response — zero or more lines — followed by a lone "." terminator
// line, then keeps the connection open for the next query (ccsig_top
// polls over one connection). Responses queue in a bounded per-client
// buffer flushed nonblockingly; a client that stops reading past the
// bound is disconnected rather than blocking the daemon.
#pragma once

#include <poll.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ccsig::service {

class LineServer {
 public:
  /// Answers one query line with a response body (the server adds the
  /// "." terminator). Multi-line bodies use embedded '\n'; a trailing
  /// '\n' is optional. Body lines must not be exactly "." (the grammar's
  /// one reserved line — nothing this repo emits collides).
  using QueryHandler = std::function<std::string(std::string_view)>;

  /// Binds and listens on `socket_path` (an existing socket file is
  /// unlinked first). A non-null `handler` enables query mode.
  /// Throws std::runtime_error on failure.
  explicit LineServer(const std::string& socket_path,
                      QueryHandler handler = nullptr);
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;
  ~LineServer();

  /// Accepts any pending connections (nonblocking; call once per service
  /// iteration).
  void accept_pending();

  /// Appends the descriptors whose readability means work for this
  /// server: the listen socket, and in query mode every client (a query
  /// or a hang-up to reap). Broadcast subscribers never send.
  void poll_fds(std::vector<pollfd>& out) const;

  /// Sends `line` + '\n' to every subscriber. Slow subscribers drop the
  /// line; dead ones are closed and removed.
  void broadcast(std::string_view line);

  /// Query mode: reads pending query lines from every client, answers
  /// each through the handler, and flushes response buffers. No-op
  /// without a handler. Returns the number of queries answered.
  std::size_t serve_pending();

  /// Per-subscriber loss accounting for statusz: connection id (unique
  /// over the server's lifetime, monotonically assigned at accept) and
  /// lines dropped to that subscriber so far.
  struct SubscriberStats {
    std::uint64_t id = 0;
    std::uint64_t lines_dropped = 0;
  };
  std::vector<SubscriberStats> subscriber_stats() const;

  std::size_t subscribers() const { return clients_.size(); }
  /// Total lines dropped across all subscribers, including ones that
  /// have since disconnected.
  std::uint64_t lines_dropped() const { return dropped_; }
  /// Subscribers reaped (dead on send/read) since startup.
  std::uint64_t disconnects() const { return disconnects_; }
  std::uint64_t queries_answered() const { return queries_; }
  const std::string& path() const { return path_; }

 private:
  struct Client {
    int fd = -1;
    std::uint64_t id = 0;
    std::uint64_t dropped = 0;
    std::string in;   // partial query line (query mode)
    std::string out;  // unflushed response bytes (query mode)
  };

  /// Closes and removes clients_[i] (swap-with-back; counted).
  void reap(std::size_t i);
  /// Nonblocking flush of c.out; returns false when the client died.
  bool flush_out(Client& c);

  std::string path_;
  QueryHandler handler_;
  int listen_fd_ = -1;
  std::vector<Client> clients_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::uint64_t disconnects_ = 0;
  std::uint64_t queries_ = 0;
  std::string send_buf_;  // reused: line + '\n'
};

}  // namespace ccsig::service
