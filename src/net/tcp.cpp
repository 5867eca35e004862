#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/log.hpp"

namespace sdvm::net {

namespace {

/// "host:port" → sockaddr_in. Only IPv4 dotted-quad or "127.0.0.1" style
/// hosts are supported — the SDVM cluster list stores resolved addresses.
/// Strictly validated: a malformed port must come back as a Status, never
/// as an exception escaping the transport.
Result<sockaddr_in> parse_address(const std::string& addr) {
  auto colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) {
    return Status::error(ErrorCode::kInvalidArgument, "bad address " + addr);
  }
  std::uint32_t port = 0;
  for (std::size_t i = colon + 1; i < addr.size(); ++i) {
    char c = addr[i];
    if (c < '0' || c > '9') {
      return Status::error(ErrorCode::kInvalidArgument,
                           "bad port in address " + addr);
    }
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "port out of range in address " + addr);
    }
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  std::string host = addr.substr(0, colon);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    return Status::error(ErrorCode::kInvalidArgument, "bad host " + host);
  }
  return sa;
}

/// Per-frame payload cap (unchanged from the writer-thread transport).
constexpr std::size_t kMaxFrame = 64 * 1024 * 1024;
/// Receiver-side cap on one batch body; anything a legal sender composes
/// fits (a singleton batch of a max frame is ~64 MiB).
constexpr std::size_t kMaxBatchBody = 2 * kMaxFrame;
/// Batch header: u32 body_len + u16 frame_count.
constexpr std::size_t kBatchHeader = 6;
/// iovecs per writev call (comfortably under IOV_MAX everywhere).
constexpr int kIovChunk = 512;
/// Inbound bytes drained per connection per loop pass; level-triggered
/// epoll re-reports, so a firehose peer cannot starve senders of mu_.
constexpr std::size_t kMaxReadPerPass = 1 * 1024 * 1024;

void put_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t get_le16(const std::byte* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// xorshift64* step — the per-peer deterministic jitter stream.
std::uint64_t jitter_next(std::uint64_t* state) {
  std::uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1Dull;
}

}  // namespace

Nanos TcpTransport::now_nanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::unique_ptr<TcpTransport>> TcpTransport::listen(std::uint16_t port,
                                                           Receiver receiver) {
  return listen(port, std::move(receiver), Options{});
}

Result<std::unique_ptr<TcpTransport>> TcpTransport::listen(std::uint16_t port,
                                                           Receiver receiver,
                                                           Options options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::error(ErrorCode::kInternal,
                         std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return Status::error(ErrorCode::kUnavailable,
                         std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::error(ErrorCode::kInternal,
                         std::string("listen: ") + std::strerror(errno));
  }
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return Status::error(ErrorCode::kInternal, "fcntl O_NONBLOCK failed");
  }
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);

  return std::unique_ptr<TcpTransport>(new TcpTransport(
      fd, ntohs(sa.sin_port), std::move(receiver), options));
}

TcpTransport::TcpTransport(int listen_fd, std::uint16_t port,
                           Receiver receiver, Options options)
    : options_(options),
      listen_fd_(listen_fd),
      port_(port),
      receiver_(std::move(receiver)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);

  auto add = [&](int fd, FdRecord* rec) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = rec;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  };
  add(listen_fd_, &listen_rec_);
  add(wake_fd_, &wake_rec_);
  add(timer_fd_, &timer_rec_);

  loop_thread_ = std::thread([this] { loop(); });
}

TcpTransport::~TcpTransport() { close(); }

std::string TcpTransport::local_address() const {
  return "127.0.0.1:" + std::to_string(port_);
}

void TcpTransport::wake_loop() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof(one));
}

// --- enqueue side (any thread) ----------------------------------------------

Status TcpTransport::send(const std::string& to, std::vector<std::byte> bytes) {
  if (bytes.size() > kMaxFrame) {
    return Status::error(ErrorCode::kInvalidArgument, "frame too large");
  }
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::error(ErrorCode::kUnavailable, "transport closed");
    }
    auto it = peers_.find(to);
    Peer* peer;
    if (it == peers_.end()) {
      auto sa = parse_address(to);
      if (!sa.is_ok()) return sa.status();
      auto p = std::make_unique<Peer>(to);
      p->jitter_state =
          (options_.jitter_seed ^ std::hash<std::string>{}(to)) | 1;
      peer = p.get();
      peers_[to] = std::move(p);
    } else {
      peer = it->second.get();
    }

    Nanos now = now_nanos();
    if (peer->unreachable) {
      if (now - peer->unreachable_at < options_.unreachable_cooldown) {
        ++stats_.frames_dropped;
        return Status::error(ErrorCode::kUnavailable,
                             "peer " + to + " unreachable");
      }
      peer->unreachable = false;
      peer->attempts = 0;
      peer->retry_at = 0;
    }
    if (peer->queue.size() >= options_.max_queued_frames) {
      ++stats_.frames_dropped;
      return Status::error(ErrorCode::kResourceExhausted,
                           "outbound queue to " + to + " full");
    }
    if (peer->queue.size() == peer->inflight_frames) {
      peer->batch_started = now;
    }
    peer->queued_bytes += bytes.size();
    peer->queue.push_back(std::move(bytes));
    wake = loop_sleeping_;
  }
  if (wake) wake_loop();
  return Status::ok();
}

Status TcpTransport::send_batch(const std::string& to,
                                std::vector<Frame> frames) {
  if (frames.empty()) return Status::ok();

  Status first = Status::ok();
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::error(ErrorCode::kUnavailable, "transport closed");
    }
    auto it = peers_.find(to);
    Peer* peer;
    if (it == peers_.end()) {
      // First contact: validate the address once; a known peer key is
      // already proven well-formed, so the hot path skips the parse.
      auto sa = parse_address(to);
      if (!sa.is_ok()) return sa.status();
      auto p = std::make_unique<Peer>(to);
      p->jitter_state =
          (options_.jitter_seed ^ std::hash<std::string>{}(to)) | 1;
      peer = p.get();
      peers_[to] = std::move(p);
    } else {
      peer = it->second.get();
    }

    Nanos now = now_nanos();
    if (peer->unreachable) {
      if (now - peer->unreachable_at < options_.unreachable_cooldown) {
        stats_.frames_dropped += frames.size();
        return Status::error(ErrorCode::kUnavailable,
                             "peer " + to + " unreachable");
      }
      // Cooldown elapsed: re-probe with a fresh retry budget.
      peer->unreachable = false;
      peer->attempts = 0;
      peer->retry_at = 0;
    }

    for (auto& f : frames) {
      if (f.size() > kMaxFrame) {
        if (first.is_ok()) {
          first = Status::error(ErrorCode::kInvalidArgument, "frame too large");
        }
        continue;
      }
      if (peer->queue.size() >= options_.max_queued_frames) {
        ++stats_.frames_dropped;
        if (first.is_ok()) {
          first = Status::error(ErrorCode::kResourceExhausted,
                                "outbound queue to " + to + " full");
        }
        continue;
      }
      if (peer->queue.size() == peer->inflight_frames) {
        peer->batch_started = now;  // first frame of a new accumulation
      }
      peer->queued_bytes += f.size();
      peer->queue.push_back(std::move(f));
    }
    wake = loop_sleeping_;
  }
  if (wake) wake_loop();
  return first;
}

void TcpTransport::flush(const std::string& to) {
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    auto it = peers_.find(to);
    if (it == peers_.end()) return;
    if (it->second->queue.empty()) return;
    it->second->force_flush = true;
    wake = loop_sleeping_;
  }
  if (wake) wake_loop();
}

void TcpTransport::reset_peer(const std::string& to) {
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    auto it = peers_.find(to);
    if (it == peers_.end()) return;
    it->second->unreachable = false;
    it->second->attempts = 0;
    it->second->retry_at = 0;
    wake = loop_sleeping_;
  }
  if (wake) wake_loop();
}

TcpTransport::Stats TcpTransport::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

TcpTransport::PeerState TcpTransport::peer_state(const std::string& to) const {
  std::lock_guard lock(mu_);
  auto it = peers_.find(to);
  if (it == peers_.end()) return {};
  PeerState s;
  s.known = true;
  s.unreachable = it->second->unreachable && !it->second->hook_pending;
  s.last_errno = it->second->last_errno;
  s.queued = it->second->queue.size();
  return s;
}

void TcpTransport::close() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  wake_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The fixed fds are closed here, after the join: the loop thread and any
  // concurrent wake_loop() caller may touch them right up to loop exit.
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  ::close(timer_fd_);
}

// --- event loop (single thread owns every fd) -------------------------------

void TcpTransport::loop() {
  std::vector<epoll_event> events(128);
  std::vector<Frame> delivered;
  std::vector<std::string> verdicts;

  for (;;) {
    {
      std::lock_guard lock(mu_);
      if (stopping_.load(std::memory_order_relaxed)) break;
      Nanos now = now_nanos();
      for (auto& [addr, peer] : peers_) {
        service_peer(*peer, now, &verdicts);
      }
      arm_timer(now);
      loop_sleeping_ = true;
    }
    announce(verdicts);

    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), -1);
    {
      std::lock_guard lock(mu_);
      loop_sleeping_ = false;
      if (stopping_.load(std::memory_order_relaxed)) break;
      Nanos now = now_nanos();
      for (int i = 0; i < n; ++i) {
        auto* rec = static_cast<FdRecord*>(events[static_cast<std::size_t>(i)]
                                               .data.ptr);
        std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
        switch (rec->kind) {
          case FdRecord::Kind::kListen:
            accept_ready(now);
            break;
          case FdRecord::Kind::kWake: {
            std::uint64_t buf = 0;
            while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
            }
            break;
          }
          case FdRecord::Kind::kTimer: {
            std::uint64_t expirations = 0;
            while (::read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
            }
            break;  // deadlines handled by the next service pass
          }
          case FdRecord::Kind::kInbound:
            inbound_ready(rec->inbound, &delivered);
            break;
          case FdRecord::Kind::kPeer: {
            Peer& peer = *rec->peer;
            if (peer.fd < 0) break;  // stale event after a drop
            if (peer.conn == Peer::Conn::kConnecting) {
              on_connect_event(peer, now, &verdicts);
              break;
            }
            if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
              connection_broken(peer, EPIPE, now, &verdicts);
              break;
            }
            if ((ev & EPOLLIN) != 0) {
              // Our protocol never sends data back on an outgoing
              // connection, so readable means EOF/RST (peer restart).
              char probe[256];
              ssize_t r = ::recv(peer.fd, probe, sizeof(probe), 0);
              if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR &&
                             errno != EWOULDBLOCK)) {
                connection_broken(peer, r == 0 ? EPIPE : errno, now,
                                  &verdicts);
                break;
              }
            }
            if ((ev & EPOLLOUT) != 0) {
              try_write(peer, now, &verdicts);
            }
            break;
          }
        }
      }
    }
    if (!delivered.empty()) {
      if (receiver_ && !stopping_.load()) {
        for (auto& frame : delivered) receiver_(std::move(frame));
      }
      delivered.clear();
    }
    announce(verdicts);
  }

  // Shutdown: connection fds are loop-thread-only, so teardown is plain
  // closes. The fixed fds (listen/epoll/wake/timer) are closed by close()
  // AFTER the join — wake_loop() callers write to wake_fd_ concurrently
  // with this cleanup, so closing it here would race.
  {
    std::lock_guard lock(mu_);
    for (auto& [addr, peer] : peers_) {
      if (peer->fd >= 0) {
        ::close(peer->fd);
        peer->fd = -1;
        peer->conn = Peer::Conn::kIdle;
      }
    }
  }
  for (auto& [fd, in] : inbounds_) ::close(fd);
  inbounds_.clear();
  inbound_recs_.clear();
  peer_recs_.clear();
}

// --- outgoing side ----------------------------------------------------------

Nanos TcpTransport::backoff_for(Peer& peer) {
  Nanos backoff = options_.backoff_base;
  for (int i = 1; i < peer.attempts && backoff < options_.backoff_max; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.backoff_max);
  backoff += static_cast<Nanos>(
      jitter_next(&peer.jitter_state) %
      static_cast<std::uint64_t>(backoff / 2 + 1));
  return backoff;
}

/// Decides whether the peer's unflushed frames should leave now.
/// `*deadline_hit`/`*size_hit` report the trigger for the stats.
static bool flush_due(const TcpTransport::Options& options, Nanos now,
                      std::size_t unflushed_frames,
                      std::size_t unflushed_bytes, Nanos batch_started,
                      bool force, bool* deadline_hit, bool* size_hit) {
  *deadline_hit = false;
  *size_hit = false;
  if (unflushed_frames == 0) return false;
  if (force) return true;
  std::size_t frame_cap = std::clamp<std::size_t>(
      options.flush_frames, 1, TcpTransport::kMaxFramesPerBatch);
  if (unflushed_frames >= frame_cap || unflushed_bytes >= options.flush_bytes) {
    *size_hit = true;
    return true;
  }
  if (options.flush_deadline <= 0) return true;  // eager mode
  if (now - batch_started >= options.flush_deadline) {
    *deadline_hit = true;
    return true;
  }
  return false;
}

void TcpTransport::service_peer(Peer& peer, Nanos now,
                                std::vector<std::string>* verdicts) {
  if (peer.unreachable) return;
  if (peer.conn == Peer::Conn::kConnecting) {
    if (now >= peer.connect_deadline) {
      connection_broken(peer, ETIMEDOUT, now, verdicts);
    }
    return;
  }
  if (peer.queue.empty()) return;
  if (peer.conn == Peer::Conn::kIdle) {
    if (peer.attempts > 0 && now < peer.retry_at) return;  // backing off
    start_connect(peer, now, verdicts);
  }
  if (peer.conn == Peer::Conn::kConnected) {
    try_write(peer, now, verdicts);
  }
}

void TcpTransport::start_connect(Peer& peer, Nanos now,
                                 std::vector<std::string>* verdicts) {
  auto sa = parse_address(peer.addr);
  if (!sa.is_ok()) {
    peer.last_errno = EINVAL;
    ++peer.attempts;
    ++stats_.send_retries;
    if (peer.attempts >= options_.max_attempts) {
      declare_unreachable(peer, verdicts);
    } else {
      peer.retry_at = now + backoff_for(peer);
    }
    return;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    if (fd >= 0) ::close(fd);
    peer.last_errno = errno;
    ++peer.attempts;
    ++stats_.send_retries;
    if (peer.attempts >= options_.max_attempts) {
      declare_unreachable(peer, verdicts);
    } else {
      peer.retry_at = now + backoff_for(peer);
    }
    return;
  }

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa.value()),
                     sizeof(sockaddr_in));
  if (rc != 0 && errno != EINPROGRESS) {
    int err = errno;
    ::close(fd);
    peer.last_errno = err;
    ++peer.attempts;
    ++stats_.send_retries;
    if (peer.attempts >= options_.max_attempts) {
      declare_unreachable(peer, verdicts);
    } else {
      peer.retry_at = now + backoff_for(peer);
    }
    return;
  }

  peer.fd = fd;
  auto& rec = peer_recs_[&peer];
  if (!rec) {
    rec = std::make_unique<FdRecord>();
    rec->kind = FdRecord::Kind::kPeer;
    rec->peer = &peer;
  }
  epoll_event ev{};
  ev.data.ptr = rec.get();
  if (rc == 0) {
    // Localhost fast path: connected synchronously.
    peer.conn = Peer::Conn::kConnected;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    peer.last_errno = 0;
    if (peer.ever_connected) {
      ++stats_.reconnects;
      SDVM_INFO("tcp") << "reconnected to " << peer.addr;
    }
    peer.ever_connected = true;
    ev.events = EPOLLIN;
    peer.epoll_mask = EPOLLIN;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  } else {
    peer.conn = Peer::Conn::kConnecting;
    peer.connect_deadline = now + options_.connect_timeout;
    ev.events = EPOLLOUT;
    peer.epoll_mask = EPOLLOUT;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void TcpTransport::on_connect_event(Peer& peer, Nanos now,
                                    std::vector<std::string>* verdicts) {
  int so_error = 0;
  socklen_t elen = sizeof(so_error);
  ::getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &so_error, &elen);
  if (so_error != 0) {
    connection_broken(peer, so_error, now, verdicts);
    return;
  }
  peer.conn = Peer::Conn::kConnected;
  int one = 1;
  ::setsockopt(peer.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  peer.last_errno = 0;
  if (peer.ever_connected) {
    ++stats_.reconnects;
    SDVM_INFO("tcp") << "reconnected to " << peer.addr;
  }
  peer.ever_connected = true;
  try_write(peer, now, verdicts);
}

void TcpTransport::compose_batch(Peer& peer, Nanos now) {
  std::size_t frame_cap = std::clamp<std::size_t>(
      options_.flush_frames, 1, kMaxFramesPerBatch);
  std::size_t body_cap =
      std::min(std::max(options_.flush_bytes, std::size_t{64 * 1024}),
               kMaxBatchBody);
  std::size_t n = 0;
  std::size_t body = 0;
  while (n < frame_cap && n < peer.queue.size()) {
    std::size_t wire = 4 + peer.queue[n].size();
    if (n > 0 && body + wire > body_cap) break;
    body += wire;
    ++n;
  }
  peer.inflight_frames = n;
  peer.inflight_body = body;
  peer.sent_off = 0;
  put_le32(peer.header.data(), static_cast<std::uint32_t>(body));
  peer.header[4] = static_cast<std::uint8_t>(n);
  peer.header[5] = static_cast<std::uint8_t>(n >> 8);
  peer.force_flush = false;
  if (peer.queue.size() > n) peer.batch_started = now;
}

void TcpTransport::try_write(Peer& peer, Nanos now,
                             std::vector<std::string>* verdicts) {
  while (peer.conn == Peer::Conn::kConnected) {
    if (peer.inflight_frames == 0) {
      bool deadline_hit = false;
      bool size_hit = false;
      if (!flush_due(options_, now, peer.queue.size(), peer.queued_bytes,
                     peer.batch_started, peer.force_flush, &deadline_hit,
                     &size_hit)) {
        break;
      }
      if (deadline_hit) ++stats_.flush_deadline_hits;
      if (size_hit) ++stats_.flush_size_hits;
      compose_batch(peer, now);
    }

    const std::size_t total = kBatchHeader + peer.inflight_body;
    // Scatter-gather directly out of the queue: header, then per frame a
    // little-endian length prefix and the payload — no copy of payloads.
    std::vector<std::array<std::uint8_t, 4>> lens;
    lens.reserve(peer.inflight_frames);
    iovec iov[kIovChunk];
    int iovn = 0;
    std::size_t attempted = 0;
    auto add = [&](const void* p, std::size_t len) {
      if (len == 0) return;
      iov[iovn].iov_base = const_cast<void*>(p);
      iov[iovn].iov_len = len;
      ++iovn;
      attempted += len;
    };
    std::size_t skip = peer.sent_off;
    if (skip < kBatchHeader) {
      add(peer.header.data() + skip, kBatchHeader - skip);
      skip = 0;
    } else {
      skip -= kBatchHeader;
    }
    for (std::size_t i = 0; i < peer.inflight_frames && iovn + 2 <= kIovChunk;
         ++i) {
      const Frame& f = peer.queue[i];
      std::size_t wire = 4 + f.size();
      if (skip >= wire) {
        skip -= wire;
        continue;
      }
      lens.emplace_back();
      put_le32(lens.back().data(), static_cast<std::uint32_t>(f.size()));
      if (skip < 4) {
        add(lens.back().data() + skip, 4 - skip);
        skip = 0;
      } else {
        skip -= 4;
      }
      add(f.data() + skip, f.size() - skip);
      skip = 0;
    }

    ssize_t w = ::writev(peer.fd, iov, iovn);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      connection_broken(peer, errno, now, verdicts);
      break;
    }
    peer.sent_off += static_cast<std::size_t>(w);
    if (peer.sent_off < total) {
      if (static_cast<std::size_t>(w) < attempted) continue;  // likely full
      continue;  // more iov chunks to go
    }

    // Batch fully on the wire.
    std::size_t frames = peer.inflight_frames;
    for (std::size_t i = 0; i < frames; ++i) {
      peer.queued_bytes -= peer.queue.front().size();
      peer.queue.pop_front();
    }
    stats_.frames_sent += frames;
    stats_.bytes_sent += total;
    ++stats_.batches_sent;
    std::size_t bucket = std::min<std::size_t>(
        Stats::kBatchBuckets - 1,
        static_cast<std::size_t>(std::bit_width(frames) - 1));
    ++stats_.frames_per_batch[bucket];
    peer.inflight_frames = 0;
    peer.inflight_body = 0;
    peer.sent_off = 0;
    peer.attempts = 0;
    peer.last_errno = 0;
  }
  update_peer_interest(peer);
}

void TcpTransport::connection_broken(Peer& peer, int err, Nanos now,
                                     std::vector<std::string>* verdicts) {
  // Frames whose bytes all reached the socket count as sent; the rest stay
  // queued and are re-sent (from their first byte) after the reconnect —
  // the peer's parse state reset with the connection, so that is safe.
  if (peer.inflight_frames > 0) {
    std::size_t pos = kBatchHeader;
    std::size_t popped = 0;
    std::uint64_t popped_wire = 0;
    while (popped < peer.inflight_frames) {
      std::size_t wire = 4 + peer.queue.front().size();
      if (peer.sent_off < pos + wire) break;
      pos += wire;
      popped_wire += wire;
      peer.queued_bytes -= peer.queue.front().size();
      peer.queue.pop_front();
      ++popped;
    }
    stats_.frames_sent += popped;
    stats_.bytes_sent += popped_wire;
    peer.inflight_frames = 0;
    peer.inflight_body = 0;
    peer.sent_off = 0;
  }
  drop_connection(peer);
  peer.last_errno = err;
  ++peer.attempts;
  ++stats_.send_retries;
  if (peer.attempts >= options_.max_attempts) {
    declare_unreachable(peer, verdicts);
  } else {
    peer.retry_at = now + backoff_for(peer);
  }
}

void TcpTransport::drop_connection(Peer& peer) {
  if (peer.fd >= 0) {
    ::close(peer.fd);  // implicitly deregisters from epoll
    peer.fd = -1;
  }
  peer.conn = Peer::Conn::kIdle;
  peer.epoll_mask = 0;
}

void TcpTransport::declare_unreachable(Peer& peer,
                                       std::vector<std::string>* verdicts) {
  peer.unreachable = true;
  peer.hook_pending = verdicts != nullptr;
  peer.unreachable_at = now_nanos();
  peer.attempts = 0;
  peer.retry_at = 0;
  std::size_t dropped = peer.queue.size();
  peer.queue.clear();
  peer.queued_bytes = 0;
  peer.inflight_frames = 0;
  peer.inflight_body = 0;
  peer.sent_off = 0;
  peer.force_flush = false;
  drop_connection(peer);
  stats_.frames_dropped += dropped;
  ++stats_.peers_unreachable;
  SDVM_WARN("tcp") << "peer " << peer.addr << " unreachable ("
                   << std::strerror(peer.last_errno) << "), dropped "
                   << dropped << " queued frame(s)";
  if (verdicts != nullptr) verdicts->push_back(peer.addr);
}

void TcpTransport::announce(std::vector<std::string>& verdicts) {
  if (verdicts.empty()) return;
  for (const std::string& addr : verdicts) {
    if (hook_ && !stopping_.load()) hook_(addr);
  }
  std::lock_guard lock(mu_);
  for (const std::string& addr : verdicts) {
    if (auto it = peers_.find(addr); it != peers_.end()) {
      it->second->hook_pending = false;
    }
  }
  verdicts.clear();
}

void TcpTransport::update_peer_interest(Peer& peer) {
  if (peer.fd < 0) return;
  std::uint32_t want = 0;
  if (peer.conn == Peer::Conn::kConnecting) {
    want = EPOLLOUT;
  } else if (peer.conn == Peer::Conn::kConnected) {
    want = EPOLLIN;
    if (peer.inflight_frames > 0) want |= EPOLLOUT;
  }
  if (want == peer.epoll_mask) return;
  auto it = peer_recs_.find(&peer);
  if (it == peer_recs_.end()) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = it->second.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, peer.fd, &ev);
  peer.epoll_mask = want;
}

// --- timers ------------------------------------------------------------------

Nanos TcpTransport::next_deadline(Nanos now) const {
  Nanos next = -1;
  auto consider = [&](Nanos d) {
    if (d >= 0 && (next < 0 || d < next)) next = d;
  };
  for (const auto& [addr, peer] : peers_) {
    if (peer->unreachable) continue;
    if (peer->conn == Peer::Conn::kConnecting) {
      consider(peer->connect_deadline);
      continue;
    }
    if (peer->queue.empty()) continue;
    if (peer->conn == Peer::Conn::kIdle && peer->attempts > 0) {
      consider(peer->retry_at);
      continue;
    }
    if (peer->conn == Peer::Conn::kConnected && peer->inflight_frames == 0 &&
        options_.flush_deadline > 0) {
      consider(peer->batch_started + options_.flush_deadline);
    }
  }
  (void)now;
  return next;
}

void TcpTransport::arm_timer(Nanos now) {
  Nanos deadline = next_deadline(now);
  itimerspec its{};
  if (deadline >= 0) {
    Nanos rel = std::max<Nanos>(deadline - now, 1);
    its.it_value.tv_sec = static_cast<time_t>(rel / kNanosPerSecond);
    its.it_value.tv_nsec = static_cast<long>(rel % kNanosPerSecond);
  }
  ::timerfd_settime(timer_fd_, 0, &its, nullptr);
}

// --- inbound side ------------------------------------------------------------

void TcpTransport::accept_ready(Nanos now) {
  (void)now;
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error: epoll re-reports
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto in = std::make_unique<Inbound>();
    in->fd = fd;
    auto rec = std::make_unique<FdRecord>();
    rec->kind = FdRecord::Kind::kInbound;
    rec->inbound = in.get();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = rec.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    inbound_recs_[in.get()] = std::move(rec);
    inbounds_[fd] = std::move(in);
  }
}

void TcpTransport::close_inbound(Inbound* in) {
  int fd = in->fd;
  ::close(fd);
  inbound_recs_.erase(in);
  inbounds_.erase(fd);  // frees `in`
}

void TcpTransport::inbound_ready(Inbound* in, std::vector<Frame>* delivered) {
  // Drain a bounded amount; level-triggered epoll re-reports leftovers.
  std::size_t drained = 0;
  bool eof = false;
  while (drained < kMaxReadPerPass) {
    std::byte chunk[64 * 1024];
    ssize_t r = ::recv(in->fd, chunk, sizeof(chunk), 0);
    if (r > 0) {
      in->buf.insert(in->buf.end(), chunk, chunk + r);
      drained += static_cast<std::size_t>(r);
      if (static_cast<std::size_t>(r) < sizeof(chunk)) break;
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r < 0 && errno == EINTR) continue;
    eof = true;
    break;
  }

  // Parse as many complete batches as arrived.
  for (;;) {
    std::size_t avail = in->buf.size() - in->off;
    if (avail < 4) break;
    const std::byte* p = in->buf.data() + in->off;
    std::size_t body = get_le32(p);
    if (body > kMaxBatchBody) {
      ++stats_.frames_oversized;
      SDVM_WARN("tcp") << "oversized batch (" << body
                       << " bytes), dropping peer";
      close_inbound(in);
      return;
    }
    if (avail < kBatchHeader) break;
    std::size_t count = get_le16(p + 4);
    if (count < 1 || count > kMaxFramesPerBatch) {
      ++stats_.batches_malformed;
      SDVM_WARN("tcp") << "malformed batch (count " << count
                       << "), dropping peer";
      close_inbound(in);
      return;
    }
    if (avail < kBatchHeader + body) break;

    std::size_t pos = in->off + kBatchHeader;
    const std::size_t end = pos + body;
    std::size_t parsed = 0;
    while (pos < end && parsed < count) {
      if (end - pos < 4) break;
      std::size_t flen = get_le32(in->buf.data() + pos);
      pos += 4;
      if (flen > kMaxFrame) {
        ++stats_.frames_oversized;
        SDVM_WARN("tcp") << "oversized frame (" << flen
                         << " bytes), dropping peer";
        close_inbound(in);
        return;
      }
      if (flen > end - pos) break;
      delivered->emplace_back(in->buf.begin() + static_cast<std::ptrdiff_t>(pos),
                              in->buf.begin() +
                                  static_cast<std::ptrdiff_t>(pos + flen));
      pos += flen;
      ++parsed;
    }
    if (pos != end || parsed != count) {
      ++stats_.batches_malformed;
      SDVM_WARN("tcp") << "malformed batch body, dropping peer";
      close_inbound(in);
      return;
    }
    in->off = end;
  }

  // Compact the reassembly buffer once the parsed prefix gets large.
  if (in->off == in->buf.size()) {
    in->buf.clear();
    in->off = 0;
  } else if (in->off > 256 * 1024) {
    in->buf.erase(in->buf.begin(), in->buf.begin() +
                                       static_cast<std::ptrdiff_t>(in->off));
    in->off = 0;
  }

  if (eof) close_inbound(in);
}

}  // namespace sdvm::net
