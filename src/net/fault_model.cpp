#include "net/fault_model.hpp"

#include "common/clock.hpp"

namespace sdvm::net {

FaultModel::FaultModel(std::uint64_t seed) : rng_(seed) {}

FaultModel::~FaultModel() { stop(); }

void FaultModel::set_default_link(LinkModel model) {
  std::lock_guard lock(mu_);
  default_link_ = model;
}

void FaultModel::set_link(const std::string& from, const std::string& to,
                          LinkModel model) {
  std::lock_guard lock(mu_);
  links_[{from, to}] = model;
}

void FaultModel::set_node_zone(const std::string& address, int zone) {
  std::lock_guard lock(mu_);
  node_zone_[address] = zone;
}

void FaultModel::set_zone_link(int from_zone, int to_zone, LinkModel model) {
  std::lock_guard lock(mu_);
  zone_links_[{from_zone, to_zone}] = model;
}

void FaultModel::kill(const std::string& address) {
  std::lock_guard lock(mu_);
  killed_.insert(address);
}

bool FaultModel::is_killed(const std::string& address) const {
  std::lock_guard lock(mu_);
  return killed_.contains(address);
}

void FaultModel::partition(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  std::lock_guard lock(mu_);
  PartitionCut cut;
  cut.a.insert(a.begin(), a.end());
  cut.b.insert(b.begin(), b.end());
  partitioned_.push_back(std::move(cut));
}

void FaultModel::heal() {
  std::lock_guard lock(mu_);
  partitioned_.clear();
  killed_.clear();
}

void FaultModel::set_delivery_scheduler(DeliveryScheduler scheduler) {
  std::lock_guard lock(mu_);
  scheduler_ = std::move(scheduler);
}

bool FaultModel::partitioned_locked(const std::string& from,
                                    const std::string& to) const {
  for (const PartitionCut& cut : partitioned_) {
    if ((cut.a.contains(from) && cut.b.contains(to)) ||
        (cut.b.contains(from) && cut.a.contains(to))) {
      return true;
    }
  }
  return false;
}

const LinkModel& FaultModel::resolve_locked(const std::string& from,
                                            const std::string& to) const {
  if (auto it = links_.find({from, to}); it != links_.end()) {
    return it->second;
  }
  if (!zone_links_.empty()) {
    auto zf = node_zone_.find(from);
    auto zt = node_zone_.find(to);
    if (zf != node_zone_.end() && zt != node_zone_.end()) {
      if (auto it = zone_links_.find({zf->second, zt->second});
          it != zone_links_.end()) {
        return it->second;
      }
    }
  }
  return default_link_;
}

FaultModel::Decision FaultModel::decide_locked(const std::string& from,
                                               const std::string& to,
                                               std::size_t bytes,
                                               bool known) {
  // A dead site or a partition is a black hole, not an error the sender
  // can see — failure detection is the cluster manager's job.
  if (killed_.contains(from) || killed_.contains(to)) return {Verdict::kDrop};
  if (partitioned_locked(from, to)) return {Verdict::kDrop};
  if (!known) return {Verdict::kUnavailable};
  const LinkModel& link = resolve_locked(from, to);
  if (link.sever) return {Verdict::kUnavailable};
  if (link.loss > 0 && rng_.uniform() < link.loss) return {Verdict::kDrop};
  Nanos delay = link.latency + link.per_byte * static_cast<Nanos>(bytes);
  if (link.jitter > 0) {
    delay += static_cast<Nanos>(
        rng_.below(static_cast<std::uint64_t>(link.jitter) + 1));
  }
  if (scheduler_ != nullptr) return {Verdict::kLater, delay, scheduler_};
  return {delay > 0 ? Verdict::kLater : Verdict::kNow, delay};
}

void FaultModel::defer(const Decision& d, const std::string& to,
                       std::function<void()> fn) {
  if (d.scheduler != nullptr) {
    // Sim mode: the event loop owns time.
    d.scheduler(d.delay, to, std::move(fn));
    return;
  }
  std::lock_guard lock(timer_mu_);
  if (stop_) return;
  if (!timer_.joinable()) timer_ = std::thread([this] { timer_loop(); });
  delayed_.push(Pending{WallClock::instance().now() + d.delay,
                        delayed_seq_++, std::move(fn)});
  timer_cv_.notify_one();
}

void FaultModel::stop() {
  {
    std::lock_guard lock(timer_mu_);
    stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
}

void FaultModel::timer_loop() {
  std::unique_lock lock(timer_mu_);
  while (!stop_) {
    if (delayed_.empty()) {
      timer_cv_.wait(lock, [this] { return stop_ || !delayed_.empty(); });
      continue;
    }
    Nanos now = WallClock::instance().now();
    if (delayed_.top().due > now) {
      timer_cv_.wait_for(lock,
                         std::chrono::nanoseconds(delayed_.top().due - now));
      continue;
    }
    Pending p = std::move(const_cast<Pending&>(delayed_.top()));
    delayed_.pop();
    lock.unlock();
    p.fn();
    lock.lock();
  }
}

}  // namespace sdvm::net
