// In-process fabric tests: delivery, latency model, loss, partitions,
// kill, stats — the fault-injection substrate all crash tests depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/clock.hpp"
#include "net/inproc.hpp"

namespace sdvm::net {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

TEST(InProcTest, ImmediateDelivery) {
  InProcNetwork net;
  std::string got;
  auto a = net.attach([&](std::vector<std::byte> b) {
    got.assign(reinterpret_cast<const char*>(b.data()), b.size());
  });
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("hi")).is_ok());
  EXPECT_EQ(got, "hi");
}

TEST(InProcTest, AddressesAreUnique) {
  InProcNetwork net;
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  EXPECT_NE(a->local_address(), b->local_address());
}

TEST(InProcTest, SendToUnknownEndpointFails) {
  InProcNetwork net;
  auto a = net.attach([](std::vector<std::byte>) {});
  EXPECT_FALSE(a->send("inproc:999", bytes_of("x")).is_ok());
}

TEST(InProcTest, DetachedEndpointUnreachable) {
  InProcNetwork net;
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  std::string addr = a->local_address();
  a->close();
  EXPECT_FALSE(b->send(addr, bytes_of("x")).is_ok());
}

TEST(InProcTest, KilledEndpointBlackHoles) {
  InProcNetwork net;
  std::atomic<int> count{0};
  auto a = net.attach([&](std::vector<std::byte>) { count++; });
  auto b = net.attach([](std::vector<std::byte>) {});
  net.faults().kill(a->local_address());
  // Sends "succeed" (the sender can't tell) but nothing arrives.
  EXPECT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  EXPECT_EQ(count.load(), 0);
  EXPECT_TRUE(net.faults().is_killed(a->local_address()));
}

TEST(InProcTest, KillSwallowsFramesInFlight) {
  InProcNetwork net;
  LinkModel slow;
  slow.latency = 1'000'000;
  net.faults().set_default_link(slow);
  std::vector<std::function<void()>> scheduled;
  net.faults().set_delivery_scheduler(
      [&](Nanos, const std::string&, std::function<void()> fn) {
        scheduled.push_back(std::move(fn));
      });
  std::atomic<int> count{0};
  auto a = net.attach([&](std::vector<std::byte>) { count++; });
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  ASSERT_EQ(scheduled.size(), 1u);
  net.faults().kill(a->local_address());
  scheduled[0]();
  EXPECT_EQ(count.load(), 0) << "a frame in flight reached a killed site";
}

TEST(InProcTest, PartitionCutsBothDirections) {
  InProcNetwork net;
  std::atomic<int> a_got{0}, b_got{0};
  auto a = net.attach([&](std::vector<std::byte>) { a_got++; });
  auto b = net.attach([&](std::vector<std::byte>) { b_got++; });
  net.faults().partition({a->local_address()}, {b->local_address()});
  EXPECT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  EXPECT_TRUE(a->send(b->local_address(), bytes_of("y")).is_ok());
  EXPECT_EQ(a_got.load(), 0);
  EXPECT_EQ(b_got.load(), 0);
  net.faults().heal();
  EXPECT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  EXPECT_EQ(a_got.load(), 1);
}

TEST(InProcTest, LossModelDropsDeterministically) {
  InProcNetwork net(/*seed=*/7);
  std::atomic<int> got{0};
  auto a = net.attach([&](std::vector<std::byte>) { got++; });
  auto b = net.attach([](std::vector<std::byte>) {});
  LinkModel lossy;
  lossy.loss = 0.5;
  net.faults().set_link(b->local_address(), a->local_address(), lossy);
  for (int i = 0; i < 200; ++i) {
    (void)b->send(a->local_address(), bytes_of("x"));
  }
  // ~50% should survive; deterministic for the fixed seed.
  EXPECT_GT(got.load(), 60);
  EXPECT_LT(got.load(), 140);
  auto stats = net.stats(b->local_address(), a->local_address());
  EXPECT_EQ(stats.messages + stats.dropped, 200u);
}

TEST(InProcTest, StatsCountMessagesAndBytes) {
  InProcNetwork net;
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("12345")).is_ok());
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("678")).is_ok());
  auto stats = net.stats(b->local_address(), a->local_address());
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.bytes, 8u);
  auto total = net.total_stats();
  EXPECT_EQ(total.messages, 2u);
  net.reset_stats();
  EXPECT_EQ(net.total_stats().messages, 0u);
}

TEST(InProcTest, WallClockDelayedDelivery) {
  InProcNetwork net;
  LinkModel slow;
  slow.latency = 20'000'000;  // 20 ms
  net.faults().set_default_link(slow);
  std::atomic<Nanos> arrival{0};
  auto a = net.attach([&](std::vector<std::byte>) {
    arrival.store(WallClock::instance().now());
  });
  auto b = net.attach([](std::vector<std::byte>) {});
  Nanos sent = WallClock::instance().now();
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (arrival.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(arrival.load(), 0);
  EXPECT_GE(arrival.load() - sent, 15'000'000) << "latency not applied";
}

TEST(InProcTest, SchedulerHookOwnsDelivery) {
  InProcNetwork net;
  LinkModel slow;
  slow.latency = 1'000'000;
  net.faults().set_default_link(slow);
  std::vector<std::pair<Nanos, std::function<void()>>> scheduled;
  net.faults().set_delivery_scheduler(
      [&](Nanos delay, const std::string&, std::function<void()> fn) {
        scheduled.emplace_back(delay, std::move(fn));
      });
  std::atomic<int> got{0};
  auto a = net.attach([&](std::vector<std::byte>) { got++; });
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("xy")).is_ok());
  ASSERT_EQ(scheduled.size(), 1u);
  EXPECT_EQ(got.load(), 0) << "delivery must wait for the scheduler";
  EXPECT_GE(scheduled[0].first, 1'000'000);
  scheduled[0].second();
  EXPECT_EQ(got.load(), 1);
}

TEST(InProcTest, JitterVariesDelay) {
  InProcNetwork net(/*seed=*/42);
  LinkModel model;
  model.latency = 1'000;
  model.jitter = 100'000;
  net.faults().set_default_link(model);
  std::vector<Nanos> delays;
  net.faults().set_delivery_scheduler(
      [&](Nanos delay, const std::string&, std::function<void()> fn) {
        delays.push_back(delay);
        fn();
      });
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(b->send(a->local_address(), std::vector<std::byte>(4)).is_ok());
  }
  ASSERT_EQ(delays.size(), 50u);
  // Delays must vary (reordering fuel) and stay within [latency, latency+jitter].
  Nanos lo = *std::min_element(delays.begin(), delays.end());
  Nanos hi = *std::max_element(delays.begin(), delays.end());
  EXPECT_GE(lo, 1'000);
  EXPECT_LE(hi, 101'000);
  EXPECT_GT(hi - lo, 10'000) << "jitter had no effect";
}

TEST(InProcTest, PerByteCostAddsToDelay) {
  InProcNetwork net;
  LinkModel model;
  model.latency = 100;
  model.per_byte = 10;
  net.faults().set_default_link(model);
  std::vector<Nanos> delays;
  net.faults().set_delivery_scheduler(
      [&](Nanos delay, const std::string&, std::function<void()> fn) {
        delays.push_back(delay);
        fn();
      });
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), std::vector<std::byte>(100)).is_ok());
  ASSERT_TRUE(b->send(a->local_address(), std::vector<std::byte>(1000)).is_ok());
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], 100 + 100 * 10);
  EXPECT_EQ(delays[1], 100 + 1000 * 10);
}

}  // namespace
}  // namespace sdvm::net
