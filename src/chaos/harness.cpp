#include "chaos/harness.hpp"

#include <algorithm>
#include <sstream>

#include "apps/chaos_mix.hpp"
#include "runtime/checkpoint_store.hpp"
#include "runtime/site.hpp"

namespace sdvm::chaos {

namespace {

/// Site config used for every chaos run: checkpointing on a sub-second
/// cadence and an aggressive failure detector, so recovery machinery is
/// exercised inside the schedule horizon.
SiteConfig chaos_site_config(bool durable, int sites) {
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = kNanosPerSecond / 2;
  cfg.heartbeat_interval = 100'000'000;   // 100 ms
  cfg.failure_timeout = 400'000'000;      // 400 ms
  // Durable sweeps replicate every committed epoch to all live sites, so
  // any survivor (or cold-restarted store) can re-home the program.
  if (durable) cfg.replication_factor = 0;
  // Large memberships: the paper-profile full-mesh heartbeats and
  // whole-list gossip are O(n²) per tick, and a 2 ms help retry against
  // hundreds of idle peers is a message storm. Ring heartbeats, delta
  // gossip and calmer timers keep the virtual event rate — and therefore
  // wall-clock — bounded; the protocols under test are unchanged at
  // paper scale.
  if (sites > 64) {
    cfg.heartbeat_fanout = 4;
    cfg.gossip_delta = true;
    cfg.heartbeat_interval = 200'000'000;   // 200 ms
    cfg.failure_timeout = kNanosPerSecond;  // 5 missed rounds
    cfg.help_retry_interval = 250'000'000;  // 250 ms
    cfg.checkpoint_interval = 2 * kNanosPerSecond;
  }
  return cfg;
}

}  // namespace

void ChaosHarness::add_invariant(std::string name, InvariantFn fn,
                                 bool quiescence_only) {
  custom_.push_back(
      CustomInvariant{std::move(name), std::move(fn), quiescence_only});
}

RunReport ChaosHarness::run(const ChaosSchedule& schedule) {
  RunReport report;
  report.seed = schedule.seed;

  sim::SimCluster::Options opts;
  opts.seed = schedule.seed;
  opts.durable_state = options_.durable_state;
  opts.disk_faults = options_.disk_faults;
  // Mix the schedule seed in so each seed sees a distinct-but-replayable
  // fault pattern even when the CLI passes one fixed disk-fault seed.
  opts.disk_faults.seed ^= schedule.seed * 0x9E3779B97F4A7C15ull;
  const net::LinkModel base_link = opts.link;
  // Zoned runs spread the sites across `zones` racks under a shared core:
  // rack r hosts sites/zones sites (the first sites%zones racks take one
  // extra). Intra-rack pairs keep the base link; crossing the core pays
  // the uplink twice, so inter-rack latency is ~4x intra-rack.
  const int zones = std::min(schedule.zones, std::max(schedule.sites, 1));
  if (zones > 1) {
    net::LinkModel up = base_link;
    up.latency *= 2;
    std::vector<sim::ZoneSpec> specs =
        sim::make_rack_topology(zones, 0, base_link, up);
    for (int r = 0; r < zones; ++r) {
      specs[static_cast<std::size_t>(r) + 1].sites =
          schedule.sites / zones + (r < schedule.sites % zones ? 1 : 0);
    }
    opts.zones = std::move(specs);
  }
  sim::SimCluster cluster(opts);
  net::FaultModel& faults = cluster.network().faults();
  const SiteConfig site_cfg =
      chaos_site_config(options_.durable_state, schedule.sites);
  if (zones > 1) {
    Status built = cluster.add_topology_sites(site_cfg);
    if (!built.is_ok()) {
      report.violations.push_back(
          Violation{"topology-valid", built.to_string(), -1, cluster.now()});
      report.trace.push_back(report.violations.back().to_line());
      return report;
    }
  } else {
    cluster.add_sites(std::max(schedule.sites, 1), 1.0, site_cfg);
  }

  std::vector<SiteRecord> records(cluster.size());
  InvariantChecker checker;

  apps::ChaosWorkload workload = apps::make_chaos_workload(schedule.seed);
  report.workload = workload.name;
  auto started = cluster.start_program(workload.spec, 0);
  if (!started.is_ok()) {
    report.violations.push_back(Violation{
        "workload-starts", started.status().message(), -1, cluster.now()});
    report.trace.push_back(report.violations.back().to_line());
    return report;
  }
  ProgramId pid = started.value();

  bool partition_active = false;
  bool loss_active = false;

  auto live = [&records](std::size_t i) {
    return i < records.size() && !records[i].killed && !records[i].signed_off &&
           !records[i].join_failed;
  };
  auto live_count = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (live(i)) ++n;
    }
    return n;
  };
  auto address = [&cluster](std::size_t i) {
    return cluster.site(i).transport()->local_address();
  };
  auto trace = [&](const std::string& line) {
    std::ostringstream os;
    os << "t=" << cluster.now() << "ns " << line;
    report.trace.push_back(os.str());
  };

  auto make_context = [&](bool at_quiescence) {
    ChaosContext ctx{cluster, pid, records};
    ctx.at_quiescence = at_quiescence;
    ctx.faults_active = partition_active || loss_active;
    ctx.terminated = report.terminated;
    ctx.exit_code = report.exit_code;
    return ctx;
  };
  auto run_checks = [&](int event_index, bool at_quiescence) {
    ChaosContext ctx = make_context(at_quiescence);
    std::vector<Violation> found = checker.check(ctx, event_index);
    for (const CustomInvariant& ci : custom_) {
      if (ci.quiescence_only && !at_quiescence) continue;
      if (std::optional<std::string> detail = ci.fn(ctx)) {
        found.push_back(
            Violation{ci.name, *detail, event_index, cluster.now()});
      }
    }
    // The checker learns about termination while scanning exit codes.
    report.terminated = report.terminated || ctx.terminated;
    if (ctx.terminated) report.exit_code = ctx.exit_code;
    for (Violation& v : found) {
      trace("VIOLATION " + v.invariant + ": " + v.detail);
      report.violations.push_back(std::move(v));
    }
  };

  // Re-assert network kills: FaultModel::heal() clears its killed set
  // along with partitions, but a crashed site must stay crashed.
  auto rekill_dead = [&] {
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].killed) faults.kill(address(i));
    }
  };

  auto apply = [&](const ChaosEvent& ev, int index) {
    auto skip = [&](const std::string& why) {
      trace("#" + std::to_string(index) + " skip " + ev.to_line() + " (" +
            why + ")");
    };
    switch (ev.kind) {
      case EventKind::kKill:
      case EventKind::kSignOff: {
        std::size_t t = ev.target;
        if (options_.prefer_lease_holder_kills) {
          // Aim the fault at shard authority: the live site holding the
          // most directory-shard leases (home exempt unless allowed).
          std::size_t best = t;
          std::size_t best_held = 0;
          for (std::size_t i = 0; i < records.size(); ++i) {
            if (!live(i)) continue;
            if (i == 0 && (ev.kind == EventKind::kSignOff ||
                           !options_.allow_home_faults)) {
              continue;
            }
            const std::size_t held = cluster.site(i).memory().shards_held();
            if (held > best_held) {
              best = i;
              best_held = held;
            }
          }
          if (best_held > 0 && best != t) {
            trace("#" + std::to_string(index) + " retarget " + ev.to_line() +
                  " -> slot " + std::to_string(best) + " (holds " +
                  std::to_string(best_held) + " shard leases)");
            t = best;
          }
        }
        if (t >= records.size() || !live(t)) return skip("target not live");
        if (live_count() <= 2) return skip("would leave <2 live sites");
        if (t == 0 && !options_.allow_home_faults) {
          return skip("home site protected");
        }
        if (t == 0 && ev.kind == EventKind::kSignOff) {
          // allow_home_faults covers *crashes* (durable recovery re-homes
          // the program); graceful departure of the home is not a
          // supported relocation path.
          return skip("home sign-off unsupported");
        }
        if (ev.kind == EventKind::kSignOff && partition_active) {
          return skip("no graceful sign-off across a partition");
        }
        trace("#" + std::to_string(index) + " apply " + ev.to_line());
        if (ev.kind == EventKind::kKill) {
          cluster.kill(t);
          records[t].killed = true;
        } else {
          auto r = cluster.sign_off(t);
          if (r.is_ok()) {
            records[t].signed_off = true;
          } else {
            trace("#" + std::to_string(index) + " sign-off failed: " +
                  r.status().message());
          }
        }
        return;
      }
      case EventKind::kAddSite: {
        int contact = -1;
        for (std::size_t i = 0; i < records.size(); ++i) {
          if (live(i)) {
            contact = static_cast<int>(i);
            break;
          }
        }
        if (contact < 0) return skip("no live contact");
        trace("#" + std::to_string(index) + " apply " + ev.to_line());
        Site& added = cluster.add_site(site_cfg, contact);
        records.push_back(SiteRecord{});
        if (!added.joined()) {
          records.back().join_failed = true;
          trace("#" + std::to_string(index) + " join did not complete");
        }
        return;
      }
      case EventKind::kPartition: {
        std::size_t split = ev.target;
        if (partition_active) return skip("partition already active");
        std::vector<std::string> a;
        std::vector<std::string> b;
        for (std::size_t i = 0; i < records.size(); ++i) {
          if (!live(i)) continue;
          (i < split ? a : b).push_back(address(i));
        }
        if (a.empty() || b.empty()) return skip("split leaves a side empty");
        trace("#" + std::to_string(index) + " apply " + ev.to_line());
        faults.partition(a, b);
        partition_active = true;
        return;
      }
      case EventKind::kHeal: {
        trace("#" + std::to_string(index) + " apply " + ev.to_line());
        faults.heal();
        rekill_dead();
        partition_active = false;
        return;
      }
      case EventKind::kLossBurst: {
        trace("#" + std::to_string(index) + " apply " + ev.to_line());
        net::LinkModel lossy = base_link;
        lossy.loss = ev.loss;
        faults.set_default_link(lossy);
        loss_active = true;
        return;
      }
      case EventKind::kLossClear: {
        trace("#" + std::to_string(index) + " apply " + ev.to_line());
        faults.set_default_link(base_link);
        loss_active = false;
        return;
      }
      case EventKind::kZoneOutage: {
        if (zones <= 1) return skip("flat fabric");
        if (partition_active) return skip("partition already active");
        // Survivable-by-design guard (generator contract re-checked at
        // apply time, so shrunk subsets and hand-edited artifacts stay
        // inside the envelope): a cut that outlives failure_timeout/2
        // lets ring neighbors across it declare each other dead, and
        // death is terminal — the false verdicts spread after the heal
        // and wedge the directory. Such an outage is skipped, which
        // turns a heal-dropping shrink step into a no-op instead of a
        // spurious split-brain "repro".
        Nanos heal_at = -1;
        for (std::size_t j = static_cast<std::size_t>(index) + 1;
             j < schedule.events.size(); ++j) {
          if (schedule.events[j].kind == EventKind::kHeal) {
            heal_at = schedule.events[j].at;
            break;
          }
        }
        if (heal_at < 0 || heal_at - ev.at > site_cfg.failure_timeout / 2) {
          return skip("unhealed cut would outlive the failure detector");
        }
        const int z = static_cast<int>(ev.target);
        std::vector<std::string> in;
        std::vector<std::string> rest;
        bool holds_home = false;
        for (std::size_t i = 0; i < records.size(); ++i) {
          if (!live(i)) continue;
          if (cluster.zone_of(i) == z) {
            if (i == 0) holds_home = true;
            in.push_back(address(i));
          } else {
            rest.push_back(address(i));
          }
        }
        if (holds_home && !options_.allow_home_faults) {
          return skip("home zone protected");
        }
        if (in.empty() || rest.empty()) {
          return skip("outage leaves a side empty");
        }
        trace("#" + std::to_string(index) + " apply " + ev.to_line());
        faults.partition(in, rest);
        partition_active = true;
        return;
      }
      case EventKind::kRestart: {
        std::size_t t = ev.target;
        if (t >= records.size() || !records[t].killed) {
          return skip("target not killed");
        }
        if (partition_active) return skip("no restart across a partition");
        trace("#" + std::to_string(index) + " apply " + ev.to_line());
        Site& back = cluster.restart(t);
        records[t].killed = false;
        records[t].join_failed = !back.joined();
        if (records[t].join_failed) {
          trace("#" + std::to_string(index) + " rejoin did not complete");
        }
        // The slot hosts a new incarnation; its committed-epoch gauge
        // restarts from the durable store, not from the old site's view.
        checker.note_restart(t);
        return;
      }
    }
  };

  trace("run seed=" + std::to_string(schedule.seed) + " sites=" +
        std::to_string(schedule.sites) +
        (zones > 1 ? " zones=" + std::to_string(zones) : "") +
        " workload=" + workload.name);

  // What the submitting client has seen so far. Output streams to the
  // frontend as it is produced; a site killed *after* the last line landed
  // must not erase it from the harness's view, so the longest log among
  // live sites is latched continuously, not sampled once at the end.
  std::vector<std::string> best_out;
  auto latch_outputs = [&] {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (!live(i)) continue;
      std::vector<std::string> candidate = cluster.outputs(i, pid);
      if (candidate.size() > best_out.size()) best_out = std::move(candidate);
    }
  };

  const Nanos t0 = cluster.now();
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const ChaosEvent& ev = schedule.events[i];
    Nanos due = t0 + ev.at;
    if (due > cluster.now()) cluster.loop().run_for(due - cluster.now());
    latch_outputs();
    apply(ev, static_cast<int>(i));
    run_checks(static_cast<int>(i), /*at_quiescence=*/false);
  }

  // Shrunk subsets may have lost their heal/clear tail; restore a fault-free
  // fabric so quiescence invariants stay meaningful. (This cannot repair a
  // wedge the faults already caused — messages lost are lost.)
  if (partition_active) {
    trace("implicit heal (schedule left a partition active)");
    faults.heal();
    rekill_dead();
    partition_active = false;
  }
  if (loss_active) {
    trace("implicit loss clear (schedule left a loss burst active)");
    faults.set_default_link(base_link);
    loss_active = false;
  }

  // Drain: run until some live site commits a verdict, checking liveness
  // invariants once per virtual half second.
  const int post_events = static_cast<int>(schedule.events.size());
  auto find_verdict = [&]() -> std::optional<std::int64_t> {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (!live(i)) continue;
      Site& site = cluster.site(i);
      if (site.programs().is_terminated(pid)) {
        return site.programs().exit_code(pid).value_or(0);
      }
    }
    return std::nullopt;
  };
  const Nanos deadline = cluster.now() + options_.deadline;
  while (cluster.now() < deadline) {
    if (auto code = find_verdict()) {
      report.terminated = true;
      report.exit_code = *code;
      break;
    }
    Nanos slice =
        std::min<Nanos>(kNanosPerSecond / 2, deadline - cluster.now());
    cluster.loop().run_for(slice);
    latch_outputs();
    run_checks(post_events, /*at_quiescence=*/false);
    if (report.terminated) break;
  }
  if (!report.terminated) {
    trace("deadline exceeded without termination");
  } else {
    trace("terminated exit=" + std::to_string(report.exit_code));
  }

  // Settle, then the quiescence pass: membership convergence, directory
  // owners, termination, and the workload's own result check.
  cluster.loop().run_for(options_.settle);
  run_checks(/*event_index=*/-1, /*at_quiescence=*/true);

  if (report.terminated) {
    // Output lands at the program's home and moves with it on takeover
    // (the replicated io log is imported at the new home), so the longest
    // log among live sites — latched across the whole run — is the
    // authoritative one.
    latch_outputs();
    if (std::optional<std::string> bad = workload.verify(best_out)) {
      Violation v{"result-correct", *bad, -1, cluster.now()};
      trace("VIOLATION " + v.invariant + ": " + v.detail);
      report.violations.push_back(std::move(v));
    }
  }

  report.disk_faults_injected = cluster.disk_faults_injected();
  if (report.disk_faults_injected > 0) {
    trace("disk faults injected: " +
          std::to_string(report.disk_faults_injected));
  }
  if (options_.durable_state) {
    // Postmortem listing of every slot's durable store: artifact name,
    // size, and whether the CRC framing still validates. CI attaches this
    // on failure so a corrupt/missing epoch is visible without a local
    // re-run.
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      auto store = cluster.state_store(i);
      if (store == nullptr) continue;
      for (const std::string& name : store->list()) {
        auto bytes = store->get(name);
        std::string line = "slot" + std::to_string(i) + " " + name;
        if (!bytes.is_ok()) {
          line += " unreadable";
        } else {
          line += " " + std::to_string(bytes.value().size()) + "B";
          if (name.find(".ckpt") != std::string::npos) {
            line += CheckpointStore::unframe(bytes.value(), ProgramId{})
                            .is_ok()
                        ? " valid"
                        : " CORRUPT";
          }
        }
        report.state_dump.push_back(std::move(line));
      }
    }
  }
  report.passed = report.violations.empty();
  trace(report.passed ? "verdict PASS" : "verdict FAIL");
  return report;
}

}  // namespace sdvm::chaos
