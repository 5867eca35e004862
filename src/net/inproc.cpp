#include "net/inproc.hpp"

namespace sdvm::net {

Status InProcEndpoint::send(const std::string& to,
                            std::vector<std::byte> bytes) {
  if (net_ == nullptr) {
    return Status::error(ErrorCode::kFailedPrecondition, "endpoint closed");
  }
  return net_->send_from(address_, to, std::move(bytes));
}

void InProcEndpoint::close() {
  if (net_ != nullptr) {
    net_->detach(address_);
    net_ = nullptr;
  }
}

InProcNetwork::InProcNetwork(std::uint64_t seed) : faults_(seed) {}

// The timer thread delivers into this fabric; stop it before the tables go.
InProcNetwork::~InProcNetwork() { faults_.stop(); }

std::unique_ptr<InProcEndpoint> InProcNetwork::attach(Receiver receiver) {
  std::lock_guard lock(faults_.mu_);
  std::string addr = "inproc:" + std::to_string(next_id_++);
  auto ep = std::make_unique<InProcEndpoint>(this, addr, std::move(receiver));
  endpoints_[addr] = ep.get();
  return ep;
}

void InProcNetwork::detach(const std::string& address) {
  std::lock_guard lock(faults_.mu_);
  endpoints_.erase(address);
}

void InProcNetwork::set_trace_hook(TraceHook hook) {
  std::lock_guard lock(faults_.mu_);
  trace_ = std::move(hook);
}

LinkStats InProcNetwork::total_stats() const {
  std::lock_guard lock(faults_.mu_);
  LinkStats total;
  for (const auto& [link, s] : stats_) {
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.dropped += s.dropped;
  }
  return total;
}

LinkStats InProcNetwork::stats(const std::string& from,
                               const std::string& to) const {
  std::lock_guard lock(faults_.mu_);
  auto it = stats_.find({from, to});
  return it == stats_.end() ? LinkStats{} : it->second;
}

void InProcNetwork::reset_stats() {
  std::lock_guard lock(faults_.mu_);
  stats_.clear();
}

Status InProcNetwork::send_from(const std::string& from, const std::string& to,
                                std::vector<std::byte> bytes) {
  using Verdict = FaultModel::Verdict;
  FaultModel::Decision d;
  {
    std::lock_guard lock(faults_.mu_);
    const bool known = endpoints_.contains(to);
    d = faults_.decide_locked(from, to, bytes.size(), known);
    const bool delivered =
        d.verdict == Verdict::kNow || d.verdict == Verdict::kLater;
    if (trace_) trace_(from, to, bytes.size(), delivered);
    auto& st = stats_[{from, to}];
    if (!delivered) {
      st.dropped++;
      if (d.verdict == Verdict::kDrop) return Status::ok();
      return Status::error(ErrorCode::kUnavailable,
                           known ? "link to " + to + " severed"
                                 : "no endpoint " + to);
    }
    st.messages++;
    st.bytes += bytes.size();
  }
  if (d.verdict == Verdict::kLater) {
    auto payload = std::make_shared<std::vector<std::byte>>(std::move(bytes));
    faults_.defer(d, to,
                  [this, to, payload] { deliver(to, std::move(*payload)); });
    return Status::ok();
  }
  deliver(to, std::move(bytes));
  return Status::ok();
}

void InProcNetwork::deliver(const std::string& to,
                            std::vector<std::byte> bytes) {
  Receiver receiver;
  {
    std::lock_guard lock(faults_.mu_);
    if (faults_.killed_locked(to)) return;
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) return;
    receiver = it->second->receiver_;
  }
  // Invoke outside the fabric lock: receivers enqueue into site inboxes.
  if (receiver) receiver(std::move(bytes));
}

}  // namespace sdvm::net
