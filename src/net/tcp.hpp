// TCP transport: the paper's deployment. ONE epoll event loop thread owns
// every socket of the daemon — the listener, all accepted (inbound)
// connections and all outgoing peer connections — so a site can hold
// hundreds of peers without hundreds of threads. Small messages are
// transparently coalesced per peer: frames accumulate in a batch buffer
// and flush on a size threshold or a deadline, leaving the host as one
// scatter-gather writev of a length-prefixed multi-frame batch.
//
// Wire format (all integers little-endian):
//   batch := [u32 body_len][u16 frame_count] body
//   body  := frame_count × ([u32 frame_len] frame_bytes)
// body_len counts the body only. body_len is validated the moment its four
// bytes arrive (oversized → counted + connection dropped), frame_count and
// the per-frame lengths when the body is parsed (mismatch → malformed).
//
// Resilience model (unchanged from the writer-thread era — the "may join
// or leave the cluster at runtime" claim has to survive real sockets):
//   * send()/send_batch() never block: frames park on a bounded per-peer
//     queue the event loop drains;
//   * connects are non-blocking with a configurable timeout; failures are
//     retried with exponential backoff + deterministic jitter;
//   * a broken connection (EPIPE/ECONNRESET, peer restart) reconnects
//     automatically; frames stay queued until every byte of theirs hit the
//     socket, so a frame is re-sent after a reconnect, never silently lost
//     mid-write;
//   * once the retry budget for one outage is exhausted the peer is
//     declared unreachable: queued frames are dropped (counted), an
//     optional hook surfaces the verdict to the runtime (the failure
//     detector), and sends fast-fail with kUnavailable until a cooldown
//     elapses.
//
// fd ownership is trivial by construction: every fd (listen, eventfd,
// timerfd, inbound, outgoing) is operated on exclusively by the event-loop
// thread after construction; close() just parks a stop flag, wakes the
// loop and joins it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "net/transport.hpp"

namespace sdvm::net {

class TcpTransport final : public Transport {
 public:
  struct Options {
    /// Per connect attempt: how long to wait for the three-way handshake.
    Nanos connect_timeout = 1 * kNanosPerSecond;
    /// Failed connects + broken sends tolerated within one outage before
    /// the peer is declared unreachable.
    int max_attempts = 5;
    /// First retry delay; doubles per attempt up to backoff_max.
    Nanos backoff_base = 25'000'000;  // 25 ms
    Nanos backoff_max = 1 * kNanosPerSecond;
    /// After an unreachable verdict, sends fast-fail for this long; the
    /// next send after the cooldown re-probes the peer.
    Nanos unreachable_cooldown = 1 * kNanosPerSecond;
    /// Bound on frames parked per peer; overflow is dropped (counted).
    std::size_t max_queued_frames = 4096;
    /// Seeds the backoff jitter (deterministic per transport).
    std::uint64_t jitter_seed = 1;

    // --- coalescing policy -------------------------------------------------
    /// A parked batch flushes as soon as its payload reaches this many
    /// bytes …
    std::size_t flush_bytes = 32 * 1024;
    /// … or this many frames (also the hard per-batch frame cap on the
    /// wire; clamped to kMaxFramesPerBatch) …
    std::size_t flush_frames = 256;
    /// … or this long after the first frame of the batch was parked
    /// (0 = flush every enqueue immediately — the pre-batching wire
    /// behaviour, one writev per frame).
    Nanos flush_deadline = 200'000;  // 200 us
  };

  /// Monotonic transport-health counters (mirrored as "net.*" metrics).
  /// frames_sent/bytes_sent/batches_sent count WIRE events — bytes that
  /// actually reached the socket — not queue admissions.
  struct Stats {
    std::uint64_t frames_sent = 0;       // frames fully written to a socket
    std::uint64_t bytes_sent = 0;        // wire bytes incl. batch framing
    std::uint64_t batches_sent = 0;      // writev batches fully written
    std::uint64_t flush_deadline_hits = 0;  // flushes forced by the deadline
    std::uint64_t flush_size_hits = 0;   // flushes forced by bytes/frames
    std::uint64_t frames_dropped = 0;    // queue overflow + unreachable
    std::uint64_t send_retries = 0;      // failed attempts that were retried
    std::uint64_t reconnects = 0;        // successful re-establishments
    std::uint64_t peers_unreachable = 0; // retry budgets exhausted
    std::uint64_t frames_oversized = 0;  // inbound frame/batch over the limit
    std::uint64_t batches_malformed = 0; // inbound batch framing inconsistent
    /// frames-per-batch histogram: bucket k counts batches carrying
    /// [2^k, 2^(k+1)) frames; the last bucket is unbounded.
    static constexpr std::size_t kBatchBuckets = 9;
    std::array<std::uint64_t, kBatchBuckets> frames_per_batch{};
  };

  /// Point-in-time view of one peer's health (join-error diagnostics).
  struct PeerState {
    bool known = false;
    /// Reads true only once the unreachable hook for this verdict has
    /// returned: an observer that sees the verdict also sees what the hook
    /// did. (Sends fast-fail from the moment of the verdict.)
    bool unreachable = false;
    int last_errno = 0;     // errno of the last failed connect/send
    std::size_t queued = 0;
  };

  /// Hard wire-format cap on frames per batch (sender clamps, receiver
  /// rejects beyond it).
  static constexpr std::size_t kMaxFramesPerBatch = 1024;
  /// Internal threads the transport runs — the single event loop. Pinned
  /// by a test: 100+ peers must not change this.
  static constexpr int kNetThreads = 1;

  /// Invoked (from the event-loop thread, no locks held) when a peer's
  /// retry budget is exhausted — the transport-level failure verdict.
  /// peer_state() reports the verdict only after the hook has returned.
  using UnreachableHook = std::function<void(const std::string& address)>;

  /// Binds and listens on 127.0.0.1:port (port 0 = ephemeral). Starts the
  /// event-loop thread immediately.
  static Result<std::unique_ptr<TcpTransport>> listen(std::uint16_t port,
                                                      Receiver receiver,
                                                      Options options);
  static Result<std::unique_ptr<TcpTransport>> listen(std::uint16_t port,
                                                      Receiver receiver);

  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] std::string local_address() const override;

  /// Never blocks: validates, parks the frame on the peer's batch buffer
  /// and returns. kInvalidArgument = bad address/frame, kUnavailable =
  /// peer currently unreachable, kResourceExhausted = queue full.
  Status send(const std::string& to, std::vector<std::byte> bytes) override;

  /// Parks a whole burst under one lock/wakeup. Per-frame admission rules
  /// (overflow counting) still apply; the first failure's status is
  /// returned, later frames are still attempted.
  Status send_batch(const std::string& to, std::vector<Frame> frames) override;

  /// Ships everything parked for `to` now, ahead of the size/deadline
  /// flush.
  void flush(const std::string& to) override;

  void close() override;

  /// Must be set before traffic flows (not thread-safe against send).
  void set_unreachable_hook(UnreachableHook hook) { hook_ = std::move(hook); }

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] PeerState peer_state(const std::string& to) const;
  /// Clears an unreachable verdict so the next send reconnects immediately
  /// (used when the runtime knows the peer restarted).
  void reset_peer(const std::string& to);

 private:
  TcpTransport(int listen_fd, std::uint16_t port, Receiver receiver,
               Options options);

  /// One outgoing peer: queue + batching state (guarded by mu_) and
  /// connection state (event-loop private, but mutated under mu_ too so
  /// peer_state() stays exact).
  struct Peer {
    explicit Peer(std::string a) : addr(std::move(a)) {}
    const std::string addr;

    // Parked frames. Frames leave the queue only when all their bytes hit
    // the socket; in-flight means "serialized into the current batch".
    std::deque<Frame> queue;
    std::size_t queued_bytes = 0;     // payload bytes parked (excl. framing)
    Nanos batch_started = 0;          // when the current accumulation began
    bool force_flush = false;         // flush() requested

    // In-flight batch: the first inflight_frames of `queue`, fixed once the
    // header is composed. sent_off counts bytes of (header + body) already
    // written.
    std::size_t inflight_frames = 0;
    std::size_t inflight_body = 0;    // body_len of the in-flight batch
    std::size_t sent_off = 0;
    std::array<std::uint8_t, 6> header{};

    // Connection state machine.
    enum class Conn : std::uint8_t { kIdle, kConnecting, kConnected };
    Conn conn = Conn::kIdle;
    int fd = -1;
    std::uint32_t epoll_mask = 0;     // currently registered interest
    Nanos connect_deadline = 0;
    Nanos retry_at = 0;               // backoff: no reconnect before this
    int attempts = 0;                 // failures in the current outage
    int last_errno = 0;
    bool unreachable = false;
    bool hook_pending = false;        // verdict declared, hook not returned
    Nanos unreachable_at = 0;
    bool ever_connected = false;
    std::uint64_t jitter_state = 0;
  };

  /// One accepted inbound connection with its stream-reassembly state.
  struct Inbound {
    int fd = -1;
    std::vector<std::byte> buf;       // unparsed stream bytes
    std::size_t off = 0;              // parse cursor into buf
  };

  /// epoll_event.data.ptr target. Peers and inbounds own their record.
  struct FdRecord {
    enum class Kind : std::uint8_t { kListen, kWake, kTimer, kInbound, kPeer };
    Kind kind;
    Peer* peer = nullptr;
    Inbound* inbound = nullptr;
  };

  void loop();
  void service_peer(Peer& peer, Nanos now, std::vector<std::string>* verdicts);
  void try_write(Peer& peer, Nanos now, std::vector<std::string>* verdicts);
  void start_connect(Peer& peer, Nanos now, std::vector<std::string>* verdicts);
  void on_connect_event(Peer& peer, Nanos now,
                        std::vector<std::string>* verdicts);
  void connection_broken(Peer& peer, int err, Nanos now,
                         std::vector<std::string>* verdicts);
  void declare_unreachable(Peer& peer, std::vector<std::string>* verdicts);
  /// Runs the hook for each verdict (no locks held), then publishes the
  /// verdicts to peer_state(). Clears `verdicts`.
  void announce(std::vector<std::string>& verdicts);
  void drop_connection(Peer& peer);
  void compose_batch(Peer& peer, Nanos now);
  void update_peer_interest(Peer& peer);
  void accept_ready(Nanos now);
  void inbound_ready(Inbound* in, std::vector<Frame>* delivered);
  void close_inbound(Inbound* in);
  [[nodiscard]] Nanos next_deadline(Nanos now) const;
  void arm_timer(Nanos now);
  void wake_loop();
  [[nodiscard]] Nanos backoff_for(Peer& peer);

  static Nanos now_nanos();

  const Options options_;
  int listen_fd_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;
  std::uint16_t port_;
  Receiver receiver_;
  UnreachableHook hook_;
  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;  // guards peers_, per-Peer state, stats_
  std::unordered_map<std::string, std::unique_ptr<Peer>> peers_;
  bool loop_sleeping_ = false;        // loop is (about to be) in epoll_wait

  // Loop-thread-only state: inbound connections and the epoll records of
  // every registered fd (freed when the fd deregisters).
  std::unordered_map<int, std::unique_ptr<Inbound>> inbounds_;
  std::unordered_map<Peer*, std::unique_ptr<FdRecord>> peer_recs_;
  std::unordered_map<Inbound*, std::unique_ptr<FdRecord>> inbound_recs_;

  Stats stats_;                       // guarded by mu_
  FdRecord listen_rec_{FdRecord::Kind::kListen};
  FdRecord wake_rec_{FdRecord::Kind::kWake};
  FdRecord timer_rec_{FdRecord::Kind::kTimer};
};

}  // namespace sdvm::net
