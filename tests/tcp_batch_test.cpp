// Batched wire protocol + epoll event loop: coalescing behaviour, flush
// policy, the one-net-thread-per-daemon property, reconnect with parked
// frames, and per-frame fault injection across batch boundaries.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "net/faulty.hpp"
#include "net/tcp.hpp"

namespace sdvm {
namespace {

using namespace std::chrono_literals;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string string_of(const std::vector<std::byte>& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

bool wait_until(const std::function<bool()>& pred,
                Nanos budget = 5'000'000'000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(static_cast<std::int64_t>(budget));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

/// Threads of this process, via /proc/self/task.
int thread_count() {
  int n = 0;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return -1;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  return n;
}

/// A bare listening socket that never accepts — enough for a peer's
/// connect to succeed (backlog) without any extra threads.
struct RawListener {
  int fd = -1;
  std::uint16_t port = 0;
  RawListener() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    ::listen(fd, 8);
    socklen_t len = sizeof(sa);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
    port = ntohs(sa.sin_port);
  }
  ~RawListener() {
    if (fd >= 0) ::close(fd);
  }
  [[nodiscard]] std::string address() const {
    return "127.0.0.1:" + std::to_string(port);
  }
};

TEST(TcpBatchTest, BurstIsCoalescedAndOrdered) {
  std::mutex mu;
  std::vector<int> order;
  auto rx = net::TcpTransport::listen(0, [&](std::vector<std::byte> b) {
    std::lock_guard lk(mu);
    order.push_back(std::stoi(string_of(b)));
  });
  ASSERT_TRUE(rx.is_ok());
  auto tx = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(tx.is_ok());

  constexpr int kN = 800;
  std::vector<net::Frame> burst;
  for (int i = 0; i < kN; ++i) burst.push_back(bytes_of(std::to_string(i)));
  ASSERT_TRUE(
      tx.value()->send_batch(rx.value()->local_address(), std::move(burst))
          .is_ok());

  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lk(mu);
    return order.size() == kN;
  }));
  std::lock_guard lk(mu);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(order[i], i) << "at " << i;

  // Coalescing must be visible on the wire: far fewer batches than frames,
  // and the histogram accounts for every batch.
  auto st = tx.value()->stats();
  EXPECT_EQ(st.frames_sent, kN);
  EXPECT_LT(st.batches_sent, st.frames_sent / 4);
  std::uint64_t hist_total = 0;
  for (auto c : st.frames_per_batch) hist_total += c;
  EXPECT_EQ(hist_total, st.batches_sent);
  tx.value()->close();
  rx.value()->close();
}

TEST(TcpBatchTest, FlushOnDeadlineWithSparseSender) {
  std::atomic<int> received{0};
  auto rx = net::TcpTransport::listen(
      0, [&](std::vector<std::byte>) { received++; });
  ASSERT_TRUE(rx.is_ok());
  net::TcpTransport::Options options;
  options.flush_deadline = 2'000'000;  // 2 ms: clearly a deadline flush
  options.flush_bytes = 1 << 20;
  options.flush_frames = 1024;  // size triggers out of reach for one frame
  auto tx = net::TcpTransport::listen(0, [](std::vector<std::byte>) {},
                                      options);
  ASSERT_TRUE(tx.is_ok());

  // A lone small frame cannot hit a size trigger; only the deadline ships
  // it. It must still arrive promptly (well under a second).
  ASSERT_TRUE(
      tx.value()->send(rx.value()->local_address(), bytes_of("solo")).is_ok());
  ASSERT_TRUE(wait_until([&] { return received.load() == 1; }, 1e9));
  EXPECT_GE(tx.value()->stats().flush_deadline_hits, 1u);
  EXPECT_EQ(tx.value()->stats().flush_size_hits, 0u);
  tx.value()->close();
  rx.value()->close();
}

TEST(TcpBatchTest, ExplicitFlushBeatsTheDeadline) {
  std::atomic<int> received{0};
  auto rx = net::TcpTransport::listen(
      0, [&](std::vector<std::byte>) { received++; });
  ASSERT_TRUE(rx.is_ok());
  net::TcpTransport::Options options;
  options.flush_deadline = 3'000'000'000;  // 3 s: too slow for this test
  options.flush_bytes = 1 << 20;
  auto tx = net::TcpTransport::listen(0, [](std::vector<std::byte>) {},
                                      options);
  ASSERT_TRUE(tx.is_ok());

  std::string dest = rx.value()->local_address();
  ASSERT_TRUE(tx.value()->send(dest, bytes_of("parked")).is_ok());
  tx.value()->flush(dest);
  // Without the explicit flush this would take ~3 s; with it, milliseconds.
  ASSERT_TRUE(wait_until([&] { return received.load() == 1; }, 1e9));
  tx.value()->close();
  rx.value()->close();
}

TEST(TcpBatchTest, MalformedBatchCountedAndConnectionDropped) {
  auto rx = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(rx.is_ok());
  auto rx_port = static_cast<std::uint16_t>(
      std::stoi(rx.value()->local_address().substr(
          rx.value()->local_address().rfind(':') + 1)));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(rx_port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  // A plausible header whose body contradicts it: body_len 10, count 3,
  // but the one frame inside claims 100 bytes.
  std::uint8_t wire[6 + 10] = {};
  wire[0] = 10;  // body_len = 10 LE
  wire[4] = 3;   // frame_count = 3 LE
  wire[6] = 100; // frame_len = 100 > remaining body
  ASSERT_EQ(::send(fd, wire, sizeof(wire), 0),
            static_cast<ssize_t>(sizeof(wire)));

  ASSERT_TRUE(wait_until(
      [&] { return rx.value()->stats().batches_malformed >= 1; }));
  // The transport must survive the bad peer.
  std::atomic<int> received{0};
  auto probe = net::TcpTransport::listen(
      0, [&](std::vector<std::byte>) { received++; });
  ASSERT_TRUE(probe.is_ok());
  auto echo = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(echo.is_ok());
  ASSERT_TRUE(echo.value()
                  ->send(probe.value()->local_address(), bytes_of("alive"))
                  .is_ok());
  ASSERT_TRUE(wait_until([&] { return received.load() == 1; }));
  ::close(fd);
  probe.value()->close();
  echo.value()->close();
  rx.value()->close();
}

TEST(TcpBatchTest, OversizedFrameInsideBatchRejectedAtSender) {
  auto rx = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(rx.is_ok());
  std::atomic<int> received{0};
  auto ok_rx = net::TcpTransport::listen(
      0, [&](std::vector<std::byte>) { received++; });
  ASSERT_TRUE(ok_rx.is_ok());
  auto tx = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(tx.is_ok());

  std::vector<net::Frame> burst;
  burst.push_back(bytes_of("fine"));
  burst.emplace_back(65 * 1024 * 1024);  // over the 64 MiB frame cap
  burst.push_back(bytes_of("also fine"));
  Status st = tx.value()->send_batch(ok_rx.value()->local_address(),
                                     std::move(burst));
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  // The two legal frames still go out.
  ASSERT_TRUE(wait_until([&] { return received.load() == 2; }));
  tx.value()->close();
  ok_rx.value()->close();
  rx.value()->close();
}

TEST(TcpBatchTest, SingleNetThreadHoldsHundredPlusPeers) {
  // Sanitizer runtimes (TSan) spawn a background thread lazily on the
  // first pthread_create; force it now so the baseline below is stable.
  std::thread([] {}).join();
  const int before = thread_count();
  ASSERT_GT(before, 0);
  auto hub = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(hub.is_ok());
  // The transport adds exactly its event loop, nothing per peer.
  EXPECT_EQ(thread_count(), before + net::TcpTransport::kNetThreads);

  constexpr int kPeers = 120;
  std::vector<std::unique_ptr<RawListener>> peers;
  for (int i = 0; i < kPeers; ++i) {
    peers.push_back(std::make_unique<RawListener>());
    ASSERT_TRUE(
        hub.value()->send(peers.back()->address(), bytes_of("hello")).is_ok());
  }
  // Every peer's queue drains: all 120 connections established and written
  // by the one loop thread.
  ASSERT_TRUE(wait_until([&] {
    for (auto& p : peers) {
      if (hub.value()->peer_state(p->address()).queued != 0) return false;
    }
    return true;
  }, 10e9));
  EXPECT_EQ(thread_count(), before + net::TcpTransport::kNetThreads);
  EXPECT_GE(hub.value()->stats().frames_sent, kPeers);
  hub.value()->close();
  EXPECT_EQ(thread_count(), before);
}

TEST(TcpBatchTest, ReconnectShipsFramesParkedDuringOutage) {
  std::mutex mu;
  std::vector<std::string> got;
  auto make_receiver = [&] {
    return [&](std::vector<std::byte> b) {
      std::lock_guard lk(mu);
      got.push_back(string_of(b));
    };
  };
  auto first = net::TcpTransport::listen(0, make_receiver());
  ASSERT_TRUE(first.is_ok());
  std::string addr = first.value()->local_address();
  auto port = static_cast<std::uint16_t>(
      std::stoi(addr.substr(addr.rfind(':') + 1)));

  net::TcpTransport::Options options;
  options.max_attempts = 100;  // outlive the restart window
  options.backoff_base = 1'000'000;
  options.backoff_max = 20'000'000;
  auto tx = net::TcpTransport::listen(0, [](std::vector<std::byte>) {},
                                      options);
  ASSERT_TRUE(tx.is_ok());

  ASSERT_TRUE(tx.value()->send(addr, bytes_of("before")).is_ok());
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lk(mu);
    return got.size() == 1;
  }));
  first.value()->close();
  first.value().reset();

  // Peer is down: these park on the queue while the loop retries.
  ASSERT_TRUE(tx.value()->send(addr, bytes_of("during-1")).is_ok());
  ASSERT_TRUE(tx.value()->send(addr, bytes_of("during-2")).is_ok());
  std::this_thread::sleep_for(50ms);

  auto second = net::TcpTransport::listen(port, make_receiver());
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lk(mu);
    return got.size() == 3;
  }, 10e9));
  {
    std::lock_guard lk(mu);
    EXPECT_EQ(got[1], "during-1");
    EXPECT_EQ(got[2], "during-2");
  }
  EXPECT_GE(tx.value()->stats().reconnects, 1u);
  tx.value()->close();
  second.value()->close();
}

/// Records everything the decorator forwards, preserving call shape.
class RecordingTransport final : public net::Transport {
 public:
  [[nodiscard]] std::string local_address() const override { return "rec:0"; }
  Status send(const std::string& to, std::vector<std::byte> bytes) override {
    std::lock_guard lk(m);
    frames.emplace_back(to, std::move(bytes));
    return Status::ok();
  }
  Status send_batch(const std::string& to,
                    std::vector<net::Frame> burst) override {
    std::lock_guard lk(m);
    ++batches;
    for (auto& f : burst) frames.emplace_back(to, std::move(f));
    return Status::ok();
  }
  void close() override {}

  std::mutex m;
  std::vector<std::pair<std::string, net::Frame>> frames;
  int batches = 0;
};

TEST(FaultyBatchTest, BatchFaultDecisionsMatchPerFrameSends) {
  // The same seed must produce the same survivor pattern whether a burst
  // goes through send_batch or frame-by-frame send: the RNG consumes one
  // decision per frame in order.
  auto make_burst = [] {
    std::vector<net::Frame> burst;
    for (int i = 0; i < 64; ++i) burst.push_back(bytes_of("m" + std::to_string(i)));
    return burst;
  };
  net::FaultyTransport::Options fopts;
  fopts.seed = 99;
  fopts.base.loss = 0.4;

  auto inner_a = std::make_unique<RecordingTransport>();
  auto* rec_a = inner_a.get();
  net::FaultyTransport faulty_a(std::move(inner_a), fopts);
  for (auto& f : make_burst()) {
    ASSERT_TRUE(faulty_a.send("x:1", std::move(f)).is_ok());
  }

  auto inner_b = std::make_unique<RecordingTransport>();
  auto* rec_b = inner_b.get();
  net::FaultyTransport faulty_b(std::move(inner_b), fopts);
  ASSERT_TRUE(faulty_b.send_batch("x:1", make_burst()).is_ok());

  std::lock_guard la(rec_a->m);
  std::lock_guard lb(rec_b->m);
  ASSERT_EQ(rec_a->frames.size(), rec_b->frames.size());
  ASSERT_LT(rec_b->frames.size(), 64u);  // some frames actually dropped
  ASSERT_GT(rec_b->frames.size(), 0u);
  for (std::size_t i = 0; i < rec_a->frames.size(); ++i) {
    EXPECT_EQ(string_of(rec_a->frames[i].second),
              string_of(rec_b->frames[i].second));
  }
  // Survivors of a burst stay one batch on the inner transport.
  EXPECT_EQ(rec_b->batches, 1);
  faulty_a.close();
  faulty_b.close();
}

TEST(FaultyBatchTest, SeveredBatchReportsUnavailableAndDropsAll) {
  auto inner = std::make_unique<RecordingTransport>();
  auto* rec = inner.get();
  net::FaultyTransport faulty(std::move(inner), {});
  net::LinkModel severed;
  severed.sever = true;
  faulty.faults().set_link(faulty.local_address(), "x:1", severed);

  std::vector<net::Frame> burst;
  burst.push_back(bytes_of("a"));
  burst.push_back(bytes_of("b"));
  Status st = faulty.send_batch("x:1", std::move(burst));
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  {
    std::lock_guard lk(rec->m);
    EXPECT_TRUE(rec->frames.empty());
  }
  EXPECT_EQ(faulty.stats().severed, 2u);
  faulty.close();
}

TEST(FaultyBatchTest, KillSwallowsDelayedFrames) {
  auto inner = std::make_unique<RecordingTransport>();
  auto* rec = inner.get();
  net::FaultyTransport::Options fopts;
  fopts.base.latency = 100'000'000;  // 100 ms on the model's timer
  net::FaultyTransport faulty(std::move(inner), fopts);
  ASSERT_TRUE(faulty.send("x:1", bytes_of("late")).is_ok());
  ASSERT_TRUE(faulty.send("x:2", bytes_of("late")).is_ok());
  faulty.faults().kill("x:1");
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lk(rec->m);
    return !rec->frames.empty();
  }, 5e9));
  {
    // The timer releases frames in due order, so x:1 was decided first.
    std::lock_guard lk(rec->m);
    ASSERT_EQ(rec->frames.size(), 1u) << "a frame in flight reached a killed peer";
    EXPECT_EQ(rec->frames[0].first, "x:2");
  }
  EXPECT_EQ(faulty.stats().delayed, 2u);
  faulty.close();
}

}  // namespace
}  // namespace sdvm
