#include "api/local_cluster.hpp"

#include <chrono>

namespace sdvm {

LocalCluster::LocalCluster(Options options)
    : options_(std::move(options)), network_(options_.seed) {
  network_.faults().set_default_link(options_.link);
}

LocalCluster::~LocalCluster() {
  for (auto& e : entries_) e->driver->stop();
  for (auto& e : entries_) {
    if (e->engine.joinable()) e->engine.join();
  }
  // Stop worker pools and delayed deliveries before the sites go away.
  for (auto& e : entries_) e->site->processing().stop();
  network_.faults().stop();
}

Site& LocalCluster::add_site(SiteConfig config) {
  auto entry = std::make_unique<Entry>();
  Entry* e = entry.get();
  e->driver = std::make_unique<EngineDriver>();
  e->site = std::make_unique<Site>(config, WallClock::instance(), *e->driver);
  e->endpoint = network_.attach(
      [site = e->site.get()](std::vector<std::byte> bytes) {
        site->on_network_data(std::move(bytes));
      });
  struct Forwarder final : net::Transport {
    net::InProcEndpoint* ep;
    explicit Forwarder(net::InProcEndpoint* p) : ep(p) {}
    std::string local_address() const override { return ep->local_address(); }
    Status send(const std::string& to, std::vector<std::byte> b) override {
      return ep->send(to, std::move(b));
    }
    void close() override {}
  };
  e->site->attach_transport(std::make_unique<Forwarder>(e->endpoint.get()));

  bool first = entries_.empty();
  std::string contact =
      first ? "" : entries_.front()->endpoint->local_address();
  entries_.push_back(std::move(entry));
  e->engine = std::thread([e] {
    e->driver->run([e] { return e->killed ? Nanos{-1} : e->site->pump(); });
  });

  if (first) {
    e->site->bootstrap();
  } else {
    e->site->join(contact);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (!e->site->joined() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!e->site->joined()) {
      SDVM_ERROR("local-cluster") << "site failed to join within 10s";
    }
  }
  return *e->site;
}

void LocalCluster::add_sites(int n, const SiteConfig& base) {
  for (int i = 0; i < n; ++i) {
    SiteConfig cfg = base;
    cfg.name = "site" + std::to_string(entries_.size() + 1);
    add_site(cfg);
  }
}

Site* LocalCluster::site_by_id(SiteId id) {
  for (auto& e : entries_) {
    if (e->site->id() == id) return e->site.get();
  }
  return nullptr;
}

Result<ProgramId> LocalCluster::start_program(const ProgramSpec& spec,
                                              std::size_t home_index) {
  return entries_.at(home_index)->site->start_program(spec);
}

Result<std::int64_t> LocalCluster::wait_program(ProgramId pid, Nanos timeout) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(timeout < 0 ? INT64_MAX : timeout);
  while (true) {
    for (auto& e : entries_) {
      if (e->killed || e->site->signed_off()) continue;
      std::lock_guard lk(e->site->lock());
      if (e->site->programs().is_terminated(pid)) {
        return e->site->programs().exit_code(pid).value_or(0);
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::error(ErrorCode::kUnavailable,
                           "program did not terminate in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Result<SiteStatus> LocalCluster::status(std::size_t index) {
  if (index >= entries_.size()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "no site at index " + std::to_string(index));
  }
  Entry* e = entries_[index].get();
  if (e->killed) {
    return Status::error(ErrorCode::kUnavailable, "site was killed");
  }
  return e->site->introspect();
}

Result<ClusterStatus> LocalCluster::cluster_status(std::size_t via_index,
                                                   Nanos timeout) {
  if (via_index >= entries_.size()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "no site at index " + std::to_string(via_index));
  }
  Entry* e = entries_[via_index].get();
  if (e->killed) {
    return Status::error(ErrorCode::kUnavailable, "site was killed");
  }

  struct Waiter {
    std::mutex m;
    std::condition_variable cv;
    std::optional<ClusterStatus> result;
  };
  auto waiter = std::make_shared<Waiter>();
  {
    std::lock_guard lk(e->site->lock());
    e->site->site_manager().query_cluster_status(
        [waiter](ClusterStatus cs) {
          std::lock_guard g(waiter->m);
          waiter->result = std::move(cs);
          waiter->cv.notify_all();
        },
        timeout);
  }
  // The via-site's engine thread pumps replies and the timeout timer; we
  // only wait here. The extra margin covers engine scheduling jitter.
  std::unique_lock lk(waiter->m);
  bool done = waiter->cv.wait_for(
      lk, std::chrono::nanoseconds(timeout) + std::chrono::seconds(5),
      [&] { return waiter->result.has_value(); });
  if (!done) {
    return Status::error(ErrorCode::kUnavailable,
                         "cluster status query did not complete");
  }
  return std::move(*waiter->result);
}

Status LocalCluster::install_trace_hook(std::size_t index,
                                        FrameTraceHook hook) {
  if (index >= entries_.size()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "no site at index " + std::to_string(index));
  }
  Entry* e = entries_[index].get();
  std::lock_guard lk(e->site->lock());
  e->site->set_frame_trace(std::move(hook));
  return Status::ok();
}

Result<SiteId> LocalCluster::sign_off(std::size_t index) {
  return entries_.at(index)->site->sign_off();
}

void LocalCluster::kill(std::size_t index) {
  Entry* e = entries_.at(index).get();
  e->killed = true;
  network_.faults().kill(e->endpoint->local_address());
  e->site->processing().stop();
}

std::vector<std::string> LocalCluster::outputs(std::size_t frontend_index,
                                               ProgramId pid) {
  Entry* e = entries_.at(frontend_index).get();
  std::lock_guard lk(e->site->lock());
  return e->site->io().outputs(pid);
}

}  // namespace sdvm
