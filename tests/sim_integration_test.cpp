// End-to-end tests of the full SDVM daemon stack under the discrete-event
// simulator: dataflow execution, distribution via help requests, COMA
// memory migration, heterogeneous compile-on-the-fly, dynamic entry/exit,
// multi-program operation, and I/O routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "test_util.hpp"

#include "api/program_builder.hpp"
#include "runtime/context.hpp"
#include "apps/fibonacci.hpp"
#include "apps/matmul.hpp"
#include "apps/primes.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm {
namespace {

using sim::SimCluster;

ProgramSpec hello_program() {
  return ProgramBuilder("hello")
      .thread("entry", R"( out(42); exit(0); )")
      .entry("entry")
      .build();
}

TEST(SimBasicTest, SingleSiteHelloWorld) {
  SimCluster cluster;
  cluster.add_sites(1);
  auto pid = cluster.start_program(hello_program());
  ASSERT_TRUE(pid.is_ok()) << pid.status().to_string();
  auto code = cluster.run_program(pid.value(), 5 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0);
  EXPECT_EQ(cluster.outputs(0, pid.value()),
            std::vector<std::string>{"42"});
}

TEST(SimBasicTest, ExitCodePropagates) {
  SimCluster cluster;
  cluster.add_sites(1);
  auto pid = cluster.start_program(
      ProgramBuilder("ec").thread("entry", "exit(17);").entry("entry").build());
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 5 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 17);
}

TEST(SimBasicTest, DataflowFiringRule) {
  // A 3-parameter collector fires only after all three sends arrive.
  SimCluster cluster;
  cluster.add_sites(1);
  auto spec = ProgramBuilder("firing")
                  .thread("entry", R"(
                    var c = spawn("collect", 3);
                    var i = 0;
                    while (i < 3) {
                      var w = spawn("work", 2);
                      send(w, 0, c);
                      send(w, 1, i);
                      i = i + 1;
                    }
                  )")
                  .thread("work", R"(
                    send(param(0), param(1), (param(1) + 1) * 10);
                  )")
                  .thread("collect", R"(
                    out(param(0) + param(1) + param(2));
                    exit(0);
                  )")
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 5 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(cluster.outputs(0, pid.value()),
            std::vector<std::string>{"60"});
}

TEST(SimBasicTest, NativeMicrothread) {
  SimCluster cluster;
  cluster.add_sites(1);
  auto spec = ProgramBuilder("native")
                  .native_thread("entry",
                                 [](Context& ctx) {
                                   ctx.out_str("native says hi");
                                   ctx.charge(1000);
                                   ctx.exit_program(0);
                                 })
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 5 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(cluster.outputs(0, pid.value()),
            std::vector<std::string>{"native says hi"});
}

TEST(SimDistributionTest, WorkSpreadsAcrossSites) {
  SimCluster cluster;
  cluster.add_sites(4);
  apps::PrimesParams params;
  params.p = 25;
  params.width = 8;
  params.work_mult = 5'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  // Every site must have executed a share of the microthreads.
  std::uint64_t total = 0;
  int active_sites = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    std::uint64_t n = cluster.site(i).processing().executed_total;
    total += n;
    if (n > 0) ++active_sites;
  }
  EXPECT_GE(active_sites, 3) << "work did not distribute";
  EXPECT_GT(total, 25u);
  // Correct answer: 25 primes found.
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  testing_util::expect_primes_verdict(out, 25, 8);
}

TEST(SimDistributionTest, FasterSitesDoMoreWork) {
  SimCluster cluster;
  SiteConfig base;
  cluster.add_sites(1, /*speed=*/4.0, base);
  cluster.add_sites(1, /*speed=*/1.0, base);
  apps::PrimesParams params;
  params.p = 40;
  params.width = 8;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  // The 4x site should execute clearly more microthreads (load balancing
  // via demand-driven help requests).
  EXPECT_GT(cluster.site(0).processing().executed_total,
            cluster.site(1).processing().executed_total);
}

TEST(SimMemoryTest, MatmulOverAttractionMemory) {
  SimCluster cluster;
  cluster.add_sites(3);
  apps::MatmulParams params;
  params.n = 8;
  params.block_rows = 2;
  auto pid = cluster.start_program(apps::make_matmul_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  // Checksum must match the reference product.
  auto ref = apps::matmul_reference(params.n);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    expected += ref[i] * (static_cast<std::int64_t>(i) % 13 + 1);
  }
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), std::to_string(expected));
}

TEST(SimMemoryTest, ObjectsMigrateBetweenSites) {
  SimCluster cluster;
  SiteConfig cfg;
  // Eager work stealing so blocks spread before the home site finishes
  // them all locally (the blocks are compute-light).
  cfg.help_retry_interval = 50'000;
  cluster.add_sites(3, 1.0, cfg);
  apps::MatmulParams params;
  params.n = 16;
  params.block_rows = 2;
  auto pid = cluster.start_program(apps::make_matmul_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 600 * kNanosPerSecond).is_ok());
  std::uint64_t migrations = 0;
  std::uint64_t requests = 0;
  std::uint64_t grants = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    migrations += cluster.site(i).memory().migrations_in;
    auto st = cluster.status(i);
    ASSERT_TRUE(st.is_ok());
    requests += st.value().metrics.counter("msg.sent.object-request");
    grants += st.value().metrics.counter("msg.sent.object-grant");
  }
  EXPECT_GT(migrations, 0u) << "COMA migration never happened";
  // The objects moved through the real request/grant protocol.
  EXPECT_GT(requests, 0u);
  EXPECT_GT(grants, 0u);
}

// Frames that crossed the fabric while some site had a started-but-
// unfinished microthread (sends leave between compute segments, so such a
// microthread is parked).
void watch_parked_frames(
    SimCluster& cluster,
    std::shared_ptr<std::vector<std::pair<std::string, std::string>>> out) {
  cluster.network().set_trace_hook(
      [&cluster, out](const std::string& from, const std::string& to,
                      std::size_t, bool delivered) {
        for (std::size_t i = 0; i < cluster.size(); ++i) {
          if (delivered && cluster.site(i).processing().running() > 0) {
            out->emplace_back(from, to);
            return;
          }
        }
      });
}

TEST(SimMemoryTest, MatmulSameSeedSameTrace) {
  auto run = [](std::uint64_t* hash) {
    SimCluster::Options opts;
    opts.seed = 9;
    SimCluster cluster(opts);
    cluster.add_sites(3);
    cluster.enable_event_hash();
    apps::MatmulParams params;
    params.n = 12;
    params.block_rows = 2;
    auto pid = cluster.start_program(apps::make_matmul_program(params));
    EXPECT_TRUE(pid.is_ok());
    EXPECT_TRUE(
        cluster.run_program(pid.value(), 600 * kNanosPerSecond).is_ok());
    *hash = cluster.event_hash();
    return cluster.outputs(0, pid.value());
  };
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  auto out1 = run(&h1);
  auto out2 = run(&h2);
  ASSERT_FALSE(out1.empty());
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(h1, h2);
}

TEST(SimMemoryTest, ParkedMicrothreadLetsAnotherFrameRun) {
  // Site 1 holds an object; on site 0 a reader misses on it while a
  // compute-only burner is ready. The burner must run while the reader is
  // parked, so the makespan stays below fetch + burn.
  SimCluster cluster;
  cluster.add_site(SiteConfig{});
  SiteConfig quiet;
  quiet.help_retry_interval = 10 * kNanosPerSecond;  // steals no work
  cluster.add_site(quiet);

  constexpr Nanos kBurn = 50'000;
  struct Record {
    std::uint64_t addr = 0;
    SiteId reader_site = kInvalidSite;
    SiteId burner_site = kInvalidSite;
    Nanos t0 = -1;
    Nanos t1 = -1;
    Nanos burn_start = -1;
  };
  auto rec = std::make_shared<Record>();
  auto spec =
      ProgramBuilder("overlap")
          .native_thread("entry",
                         [](Context& ctx) {
                           GlobalAddress join = ctx.spawn("join", 2, 0);
                           GlobalAddress r = ctx.spawn("reader", 1, 0);
                           GlobalAddress b = ctx.spawn("burner", 1, 0);
                           ctx.send_int(r, 0, static_cast<std::int64_t>(
                                                  join.value));
                           ctx.send_int(b, 0, static_cast<std::int64_t>(
                                                  join.value));
                         })
          .native_thread("reader",
                         [rec, &cluster](Context& ctx) {
                           rec->reader_site = ctx.site();
                           rec->t0 = cluster.now();
                           ctx.out(ctx.mem_read(GlobalAddress{rec->addr}, 0));
                           rec->t1 = cluster.now();
                           ctx.send_int(GlobalAddress{static_cast<std::uint64_t>(
                                            ctx.param_int(0))},
                                        0, 1);
                         })
          .native_thread("burner",
                         [rec, &cluster](Context& ctx) {
                           rec->burner_site = ctx.site();
                           rec->burn_start = cluster.now();
                           ctx.charge(kBurn);
                           ctx.send_int(GlobalAddress{static_cast<std::uint64_t>(
                                            ctx.param_int(0))},
                                        1, 1);
                         })
          .native_thread("join", [](Context& ctx) { ctx.exit_program(0); })
          .entry("entry")
          .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  {
    std::lock_guard lk(cluster.site(1).lock());
    GlobalAddress a = cluster.site(1).memory().alloc_object(pid.value(), 4);
    ASSERT_TRUE(cluster.site(1).memory().access(a, 0, 77, nullptr).is_ok());
    rec->addr = a.value;
  }
  Nanos start = cluster.now();
  ASSERT_TRUE(cluster.run_program(pid.value(), 10 * kNanosPerSecond).is_ok());
  Nanos makespan = cluster.now() - start;

  EXPECT_EQ(cluster.outputs(0, pid.value()), std::vector<std::string>{"77"});
  EXPECT_EQ(rec->reader_site, cluster.site(0).id());
  EXPECT_EQ(rec->burner_site, cluster.site(0).id());
  EXPECT_GE(rec->burn_start, rec->t0);
  EXPECT_LT(rec->burn_start, rec->t1) << "burner waited for the reader";
  Nanos fetch = rec->t1 - rec->t0;
  EXPECT_GT(fetch, kBurn) << "fetch faster than the burn; test too weak";
  EXPECT_LT(makespan, fetch + kBurn);
  EXPECT_EQ(cluster.site(0).memory().remote_fetches.value(), 1u);
}

TEST(SimMemoryTest, TeardownUnwindsParkedFiber) {
  auto unwound = std::make_shared<bool>(false);
  auto addr = std::make_shared<std::uint64_t>(0);
  {
    SimCluster cluster;
    cluster.add_sites(2);
    struct Guard {
      std::shared_ptr<bool> flag;
      ~Guard() { *flag = true; }
    };
    auto spec = ProgramBuilder("park")
                    .native_thread("entry",
                                   [unwound, addr](Context& ctx) {
                                     Guard g{unwound};
                                     (void)ctx.mem_read(GlobalAddress{*addr},
                                                        0);
                                     ctx.exit_program(0);
                                   })
                    .entry("entry")
                    .build();
    auto pid = cluster.start_program(spec);
    ASSERT_TRUE(pid.is_ok());
    {
      std::lock_guard lk(cluster.site(1).lock());
      *addr = cluster.site(1).memory().alloc_object(pid.value(), 4).value;
    }
    ASSERT_TRUE(cluster.loop().run_until(
        [&] { return cluster.site(0).processing().running() == 1; },
        cluster.now() + kNanosPerSecond));
    EXPECT_FALSE(*unwound);
    EXPECT_EQ(cluster.site(0).memory().remote_fetches.value(), 1u);
  }  // destroyed while the fiber is parked mid-fetch
  EXPECT_TRUE(*unwound) << "the parked fiber's stack was never unwound";
}

// An object allocated on site `index`, which also mediates its shard, so
// every fetch of it from another site is granted straight from there.
GlobalAddress alloc_mediated_here(SimCluster& cluster, std::size_t index,
                                  std::int64_t nwords) {
  Site& site = cluster.site(index);
  std::lock_guard lk(site.lock());
  for (;;) {
    GlobalAddress a = site.memory().alloc_object(ProgramId(1), nwords);
    if (site.memory().shard_route(a) == site.id()) {
      EXPECT_TRUE(site.memory().access(a, 0, 42, nullptr).is_ok());
      return a;
    }
  }
}

// A word read of `a` issued straight to site `index`'s attraction memory,
// as a microthread's mem_read would; the object must not be local.
std::shared_ptr<WaitCell> start_read(SimCluster& cluster, std::size_t index,
                                     GlobalAddress a) {
  std::shared_ptr<WaitCell> wait;
  std::lock_guard lk(cluster.site(index).lock());
  auto r = cluster.site(index).memory().access(a, 0, std::nullopt, &wait);
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(wait, nullptr);
  return wait;
}

std::string address_of(SimCluster& cluster, std::size_t index) {
  return cluster.site(index).transport()->local_address();
}

TEST(SimMemoryTest, RecallOvertakingItsGrantStillDeliversObject) {
  // Site 0 mediates; it grants the object to site 1 over a slow link, then
  // recalls it for site 2. The small recall overtakes the big grant: site
  // 1 must hold the recall until the object lands, not answer "miss" and
  // make the mediator declare the object lost.
  SimCluster cluster;
  cluster.add_sites(3);
  GlobalAddress a = alloc_mediated_here(cluster, 0, 1000);
  net::LinkModel slow;
  slow.latency = 100'000;
  slow.per_byte = 1'000;  // the 8 KB grant takes ~8 ms, the recall ~0.1 ms
  cluster.network().faults().set_link(address_of(cluster, 0),
                                      address_of(cluster, 1), slow);
  auto first = start_read(cluster, 1, a);
  ASSERT_TRUE(cluster.loop().run_until(
      [&] {
        return cluster.site(0).memory().directory_owner(a) ==
               cluster.site(1).id();
      },
      cluster.now() + kNanosPerSecond));
  auto second = start_read(cluster, 2, a);
  ASSERT_TRUE(cluster.loop().run_until(
      [&] { return first->done && second->done; },
      cluster.now() + kNanosPerSecond));
  EXPECT_TRUE(first->status.is_ok()) << first->status.to_string();
  EXPECT_EQ(first->word, 42);
  ASSERT_TRUE(second->status.is_ok()) << second->status.to_string();
  EXPECT_EQ(second->word, 42);
  EXPECT_NE(cluster.site(2).memory().local_object(a), nullptr);
}

TEST(SimMemoryTest, RecallWithNoGrantInFlightFailsAfterTimeout) {
  // The grant to site 1 is lost, so site 1 fetches with nothing coming.
  // The mediator's recall for site 2 must still be answered (a miss, after
  // the failure timeout), so site 2's fetch fails instead of hanging.
  SimCluster cluster;
  cluster.add_sites(3);
  GlobalAddress a = alloc_mediated_here(cluster, 0, 4);
  net::LinkModel lossy;
  lossy.latency = 100'000;
  lossy.loss = 0.99999;
  cluster.network().faults().set_link(address_of(cluster, 0),
                                      address_of(cluster, 1), lossy);
  auto first = start_read(cluster, 1, a);
  ASSERT_TRUE(cluster.loop().run_until(
      [&] {
        return cluster.site(0).memory().directory_owner(a) ==
               cluster.site(1).id();
      },
      cluster.now() + kNanosPerSecond));
  cluster.network().faults().set_link(address_of(cluster, 0),
                                      address_of(cluster, 1),
                                      net::LinkModel{.latency = 100'000});
  const Nanos t0 = cluster.now();
  auto second = start_read(cluster, 2, a);
  ASSERT_TRUE(cluster.loop().run_until(
      [&] { return second->done; }, t0 + 3 * kNanosPerSecond))
      << "the recall was never answered";
  EXPECT_FALSE(second->status.is_ok());
  EXPECT_GE(cluster.now() - t0, SiteConfig{}.failure_timeout);
  EXPECT_FALSE(first->done);  // its lost grant is never replaced
}

TEST(SimMemoryTest, LoopbackRecallAtFetchingMediatorFailsAtOnce) {
  // The grant to site 1 is lost and site 1 signs off, so the mediator
  // (its successor) recalls the object from itself while fetching it. No
  // grant can be coming: its own fetch must fail at once.
  SimCluster cluster;
  cluster.add_sites(2);
  GlobalAddress a = alloc_mediated_here(cluster, 0, 4);
  net::LinkModel lossy;
  lossy.latency = 100'000;
  lossy.loss = 0.99999;
  cluster.network().faults().set_link(address_of(cluster, 0),
                                      address_of(cluster, 1), lossy);
  auto lost = start_read(cluster, 1, a);
  ASSERT_TRUE(cluster.loop().run_until(
      [&] {
        return cluster.site(0).memory().directory_owner(a) ==
               cluster.site(1).id();
      },
      cluster.now() + kNanosPerSecond));
  cluster.network().faults().set_link(address_of(cluster, 0),
                                      address_of(cluster, 1),
                                      net::LinkModel{.latency = 100'000});
  auto succ = cluster.sign_off(1);
  ASSERT_TRUE(succ.is_ok());
  ASSERT_EQ(succ.value(), cluster.site(0).id());

  auto own = start_read(cluster, 0, a);
  EXPECT_TRUE(own->done) << "the mediator waited on its own recall";
  EXPECT_FALSE(own->status.is_ok());
  EXPECT_FALSE(lost->done);
}

TEST(SimMemoryTest, ObjectsAllocatedWhileLeasesSettleAreServed) {
  // Right after the joins, shard leases are still moving: the owner defers
  // its registrations until authority settles. A request parked on such a
  // shard must be served once it does, not wait out the park TTL (4 s)
  // and read "miss".
  SimCluster cluster;
  cluster.add_sites(3);
  std::vector<GlobalAddress> objects;
  {
    std::lock_guard lk(cluster.site(2).lock());
    for (int i = 0; i < 16; ++i) {
      objects.push_back(
          cluster.site(2).memory().alloc_object(ProgramId(1), 1));
    }
  }
  std::vector<std::shared_ptr<WaitCell>> reads;
  for (GlobalAddress a : objects) reads.push_back(start_read(cluster, 1, a));
  ASSERT_TRUE(cluster.loop().run_until(
      [&] {
        return std::all_of(reads.begin(), reads.end(),
                           [](const auto& c) { return c->done; });
      },
      cluster.now() + kNanosPerSecond));
  for (const auto& c : reads) {
    EXPECT_TRUE(c->status.is_ok()) << c->status.to_string();
  }
}

TEST(SimMemoryTest, SignOffWithParkedMicrothreadFinishesProgram) {
  // The entry runs on site 1 and parks on an object of site 2; site 1
  // signs off meanwhile. The reply must still reach the parked microthread
  // there, and what it leaves behind (a spawned frame, the fetched
  // object) must follow the rest of site 1's state to its successor.
  SimCluster cluster;
  SiteConfig quiet;
  quiet.help_retry_interval = 10 * kNanosPerSecond;  // steals no work
  for (int i = 0; i < 3; ++i) cluster.add_site(quiet);
  auto addr = std::make_shared<std::uint64_t>(0);
  auto spec =
      ProgramBuilder("depart")
          .native_thread("entry",
                         [addr](Context& ctx) {
                           std::int64_t v =
                               ctx.mem_read(GlobalAddress{*addr}, 0);
                           GlobalAddress sink = ctx.spawn("sink", 1, 0);
                           ctx.send_int(sink, 0, v);
                         })
          .native_thread("sink",
                         [](Context& ctx) {
                           ctx.out(ctx.param_int(0));
                           ctx.exit_program(0);
                         })
          .entry("entry")
          .build();
  GlobalAddress a;
  {
    // Site 1 must not mediate the object: its sign-off would hand the
    // shard off mid-fetch, a different race.
    Site& owner = cluster.site(2);
    std::lock_guard lk(owner.lock());
    do {
      a = owner.memory().alloc_object(ProgramId(1), 4);
    } while (owner.memory().shard_route(a) == cluster.site(1).id());
    ASSERT_TRUE(owner.memory().access(a, 0, 42, nullptr).is_ok());
    *addr = a.value;
  }
  auto pid = cluster.start_program(spec, 1);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.loop().run_until(
      [&] { return cluster.site(1).processing().running() == 1; },
      cluster.now() + kNanosPerSecond));
  auto succ = cluster.sign_off(1);
  ASSERT_TRUE(succ.is_ok());
  auto code = cluster.run_program(pid.value(), 10 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0);
  std::size_t succ_index = 0;
  while (cluster.site(succ_index).id() != succ.value()) ++succ_index;
  EXPECT_EQ(cluster.outputs(succ_index, pid.value()),
            std::vector<std::string>{"42"});
  EXPECT_EQ(cluster.site(1).processing().running(), 0);
  EXPECT_EQ(cluster.site(1).memory().object_count(), 0u);
  EXPECT_EQ(cluster.site(1).memory().frame_count(), 0u);
}

TEST(SimMemoryTest, ContendedObjectsEveryAccessCompletes) {
  // A program per site alternates writes to two shared objects, so every
  // write can miss. A recall is often queued right behind a grant: the
  // accesses parked on the grant must be performed when it lands. Retried
  // after the wake-up, each would find the object gone again, and no
  // access would ever progress.
  constexpr int kWrites = 40;
  SimCluster cluster;
  cluster.add_sites(3);
  GlobalAddress a = alloc_mediated_here(cluster, 0, 3);
  GlobalAddress b = alloc_mediated_here(cluster, 1, 3);
  std::vector<ProgramId> pids;
  for (int i = 0; i < 3; ++i) {
    auto spec = ProgramBuilder("contend")
                    .native_thread("entry",
                                   [a, b, i](Context& ctx) {
                                     for (int k = 1; k <= kWrites; ++k) {
                                       ctx.mem_write(a, i, k);
                                       ctx.mem_write(b, i, k);
                                     }
                                     ctx.out(ctx.mem_read(a, i) +
                                             ctx.mem_read(b, i));
                                     ctx.exit_program(0);
                                   })
                    .entry("entry")
                    .build();
    auto pid = cluster.start_program(spec, static_cast<std::size_t>(i));
    ASSERT_TRUE(pid.is_ok());
    pids.push_back(pid.value());
  }
  std::uint64_t migrations = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    auto code = cluster.run_program(pids[i], 60 * kNanosPerSecond);
    ASSERT_TRUE(code.is_ok()) << code.status().to_string();
    EXPECT_EQ(cluster.outputs(i, pids[i]),
              std::vector<std::string>{std::to_string(2 * kWrites)});
    EXPECT_EQ(cluster.site(i).processing().trapped_total.value(), 0u);
    migrations += cluster.site(i).memory().migrations_in.value();
  }
  EXPECT_GT(migrations, 2u * kWrites) << "too little contention";
}

TEST(SimFibTest, RecursiveDataflowCorrect) {
  SimCluster cluster;
  cluster.add_sites(4);
  apps::FibParams params;
  params.n = 12;
  params.leaf_work = 200'000;
  auto pid = cluster.start_program(apps::make_fib_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), std::to_string(apps::fib_reference(12)));
}

TEST(SimHeterogeneousTest, ForeignPlatformCompilesOnTheFly) {
  SimCluster cluster;
  SiteConfig linux_cfg;
  linux_cfg.platform = "linux-x86";
  SiteConfig hpux_cfg;
  hpux_cfg.platform = "hpux-parisc";
  cluster.add_sites(1, 1.0, linux_cfg);
  cluster.add_sites(1, 1.0, hpux_cfg);
  cluster.add_sites(1, 1.0, hpux_cfg);

  apps::PrimesParams params;
  params.p = 20;
  params.width = 6;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  // The first hpux site got source and compiled; its upload should let
  // the second hpux site fetch a binary (or at worst compile too).
  std::uint64_t hpux_compiles = cluster.site(1).code().compiles +
                                cluster.site(2).code().compiles;
  std::uint64_t hpux_sources = cluster.site(1).code().source_fetches +
                               cluster.site(2).code().source_fetches;
  EXPECT_GT(hpux_sources, 0u) << "source fallback never exercised";
  EXPECT_GT(hpux_compiles, 0u);
  // Uploads must have reached the home (code distribution) site.
  EXPECT_GT(cluster.site(0).code().uploads_received, 0u);
}

TEST(SimHeterogeneousTest, BinaryReusedAfterUpload) {
  // One foreign-platform site compiles and uploads; a later-joining site
  // of the same platform should fetch the binary, not the source.
  SimCluster cluster;
  SiteConfig linux_cfg;
  linux_cfg.platform = "linux-x86";
  SiteConfig hpux_cfg;
  hpux_cfg.platform = "hpux-parisc";
  cluster.add_sites(1, 1.0, linux_cfg);
  cluster.add_sites(1, 1.0, hpux_cfg);

  apps::PrimesParams params;
  params.p = 15;
  params.width = 6;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 600 * kNanosPerSecond).is_ok());

  std::uint64_t first_compiles = cluster.site(1).code().compiles;
  EXPECT_GT(first_compiles, 0u);

  // New same-platform site joins and runs another program instance.
  cluster.add_sites(1, 1.0, hpux_cfg);
  auto pid2 = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid2.is_ok());
  ASSERT_TRUE(cluster.run_program(pid2.value(), 600 * kNanosPerSecond).is_ok());
  EXPECT_GT(cluster.site(2).code().binary_fetches +
                cluster.site(2).code().compiles,
            0u);
}

TEST(SimMultiProgramTest, TwoProgramsRunIndependently) {
  SimCluster cluster;
  cluster.add_sites(3);
  apps::PrimesParams p1;
  p1.p = 15;
  p1.width = 5;
  p1.work_mult = 5'000'000;
  apps::FibParams p2;
  p2.n = 10;
  p2.leaf_work = 500'000;

  auto a = cluster.start_program(apps::make_primes_program(p1), 0);
  auto b = cluster.start_program(apps::make_fib_program(p2), 1);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(cluster.run_program(a.value(), 600 * kNanosPerSecond).is_ok());
  ASSERT_TRUE(cluster.run_program(b.value(), 600 * kNanosPerSecond).is_ok());

  testing_util::expect_primes_verdict(cluster.outputs(0, a.value()), 15, 5);
  EXPECT_EQ(cluster.outputs(1, b.value()).back(),
            std::to_string(apps::fib_reference(10)));
}

TEST(SimDynamicTest, SiteJoinsMidRun) {
  SimCluster cluster;
  cluster.add_sites(2);
  apps::PrimesParams params;
  params.p = 60;
  params.width = 10;
  params.work_mult = 20'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());

  // Let it run a bit, then a new site joins and should pick up work.
  cluster.loop().run_for(kNanosPerSecond / 2);
  cluster.add_sites(2);
  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_GT(cluster.site(2).processing().executed_total +
                cluster.site(3).processing().executed_total,
            0u)
      << "late joiners never got work";
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 10);
}

TEST(SimDynamicTest, GracefulSignOffMidRun) {
  SimCluster cluster;
  cluster.add_sites(4);
  apps::PrimesParams params;
  params.p = 60;
  params.width = 10;
  params.work_mult = 20'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(kNanosPerSecond / 2);
  // Site 3 (not the home) leaves gracefully; its frames relocate.
  auto successor = cluster.sign_off(3);
  ASSERT_TRUE(successor.is_ok()) << successor.status().to_string();

  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 10);
}

TEST(SimDynamicTest, KillThenRejoinUnderPartition) {
  // A site crashes behind an active partition while a replacement joins
  // through the still-reachable side; after the heal the program must
  // still commit the right result via checkpoint recovery.
  SimCluster cluster;
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = kNanosPerSecond / 2;
  cfg.heartbeat_interval = 100'000'000;
  cfg.failure_timeout = 400'000'000;
  cluster.add_sites(4, 1.0, cfg);

  apps::PrimesParams params;
  params.p = 60;
  params.width = 8;
  params.work_mult = 30'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  cluster.loop().run_for(kNanosPerSecond);

  auto addr = [&](std::size_t i) {
    return cluster.site(i).transport()->local_address();
  };
  cluster.network().faults().partition({addr(0), addr(1)}, {addr(2), addr(3)});
  cluster.kill(3);

  // The replacement signs on via the home site, which the partition does
  // not cut off from the new endpoint.
  Site& fresh = cluster.add_site(cfg, /*contact_index=*/0);
  EXPECT_TRUE(fresh.joined()) << "join through live side failed";

  // Let the failure detector fire on both sides of the cut, then heal.
  cluster.loop().run_for(kNanosPerSecond);
  cluster.network().faults().heal();
  // heal() clears the fabric's kill set too; the crashed site must stay
  // black-holed.
  cluster.network().faults().kill(addr(3));

  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 8);
  // The crash (and the unreachable far side) must have triggered at least
  // one checkpoint recovery at the coordinator.
  EXPECT_GE(cluster.site(0).crash().recoveries, 1u);
}

TEST(SimIoTest, OutputRoutedToFrontend) {
  SimCluster cluster;
  cluster.add_sites(3);
  // Every worker outputs; all lines must land at the home site (site 0).
  auto spec = ProgramBuilder("io")
                  .thread("entry", R"(
                    var c = spawn("collect", 4);
                    var i = 0;
                    while (i < 4) {
                      var w = spawn("work", 2);
                      send(w, 0, c);
                      send(w, 1, i);
                      i = i + 1;
                    }
                  )")
                  .thread("work", R"(
                    out(selfsite() * 1000 + param(1));
                    send(param(0), param(1), 1);
                  )")
                  .thread("collect", R"( outs("done"); exit(0); )")
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 60 * kNanosPerSecond).is_ok());
  auto out = cluster.outputs(0, pid.value());
  EXPECT_EQ(out.size(), 5u);  // 4 worker lines + "done"
  EXPECT_EQ(out.back(), "done");
  // No output lines anywhere else.
  EXPECT_TRUE(cluster.outputs(1, pid.value()).empty());
  EXPECT_TRUE(cluster.outputs(2, pid.value()).empty());
}

TEST(SimIoTest, RemoteFileAccessRerouted) {
  SimCluster cluster;
  cluster.add_sites(2);
  // Seed a file on site 2's VFS; a native thread on site 1 reads it.
  cluster.site(1).io().vfs_put("data.txt", "attraction");

  auto spec =
      ProgramBuilder("files")
          .native_thread("entry",
                         [](Context& ctx) {
                           std::string v = ctx.file_read("@2/data.txt");
                           ctx.out_str("read: " + v);
                           ctx.file_write("@2/result.txt", "stored");
                           ctx.exit_program(0);
                         })
          .entry("entry")
          .build();
  auto frames =
      std::make_shared<std::vector<std::pair<std::string, std::string>>>();
  watch_parked_frames(cluster, frames);
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 60 * kNanosPerSecond).is_ok());
  EXPECT_EQ(cluster.outputs(0, pid.value()).back(), "read: attraction");
  auto stored = cluster.site(1).io().vfs_get("result.txt");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored.value(), "stored");

  // Both accesses went over the wire while the microthread was parked:
  // a request 1 -> 2 and a reply 2 -> 1 each.
  const std::string a = cluster.site(0).transport()->local_address();
  const std::string b = cluster.site(1).transport()->local_address();
  EXPECT_GE(std::count(frames->begin(), frames->end(), std::pair{a, b}), 2);
  EXPECT_GE(std::count(frames->begin(), frames->end(), std::pair{b, a}), 2);
  auto requester = cluster.status(0);
  auto owner = cluster.status(1);
  ASSERT_TRUE(requester.is_ok() && owner.is_ok());
  EXPECT_EQ(requester.value().metrics.counter("msg.sent.file-read"), 1u);
  EXPECT_EQ(requester.value().metrics.counter("msg.sent.file-write"), 1u);
  EXPECT_EQ(owner.value().metrics.counter("msg.sent.file-read-reply"), 1u);
  EXPECT_EQ(owner.value().metrics.counter("msg.sent.file-write-ack"), 1u);
}

TEST(SimSecurityTest, EncryptedClusterRuns) {
  SimCluster cluster;
  SiteConfig cfg;
  cfg.encrypt = true;
  cfg.cluster_password = "topsecret";
  cluster.add_sites(3, 1.0, cfg);
  apps::PrimesParams params;
  params.p = 15;
  params.width = 5;
  params.work_mult = 5'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 600 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 15, 5);
  EXPECT_GT(cluster.site(0).security().sealed_count, 0u);
  EXPECT_GT(cluster.site(1).security().opened_count, 0u);
}

TEST(SimSchedulingTest, HelpRequestCountersMove) {
  SimCluster cluster;
  cluster.add_sites(4);
  apps::PrimesParams params;
  params.p = 30;
  params.width = 10;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 600 * kNanosPerSecond).is_ok());

  std::uint64_t requests = 0, given = 0, received = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    requests += cluster.site(i).scheduling().help_requests_sent;
    given += cluster.site(i).scheduling().help_frames_given;
    received += cluster.site(i).scheduling().help_frames_received;
  }
  EXPECT_GT(requests, 0u);
  EXPECT_GT(given, 0u);
  EXPECT_EQ(given, received);  // conservation: no frame lost or duplicated
}

}  // namespace
}  // namespace sdvm
