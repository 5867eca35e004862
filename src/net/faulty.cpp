#include "net/faulty.hpp"

#include "common/log.hpp"

namespace sdvm::net {

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 Options options)
    : inner_(std::move(inner)),
      self_(inner_->local_address()),
      faults_(options.seed) {
  faults_.set_default_link(options.base);
}

FaultyTransport::~FaultyTransport() { close(); }

Status FaultyTransport::send(const std::string& to,
                             std::vector<std::byte> bytes) {
  std::vector<Frame> one;
  one.push_back(std::move(bytes));
  return send_batch(to, std::move(one));
}

Status FaultyTransport::send_batch(const std::string& to,
                                   std::vector<Frame> frames) {
  using Verdict = FaultModel::Verdict;
  Status first = Status::ok();
  std::vector<Frame> survivors;
  std::vector<std::pair<FaultModel::Decision, Frame>> delayed;
  {
    std::lock_guard lk(faults_.mu_);
    if (closed_) {
      return Status::error(ErrorCode::kUnavailable, "transport closed");
    }
    survivors.reserve(frames.size());
    for (auto& f : frames) {
      FaultModel::Decision d =
          faults_.decide_locked(self_, to, f.size(), /*known=*/true);
      switch (d.verdict) {
        case Verdict::kUnavailable:
          ++stats_.severed;
          if (first.is_ok()) {
            first = Status::error(
                ErrorCode::kUnavailable,
                "link to " + to + " severed (fault injection)");
          }
          break;
        case Verdict::kDrop:
          ++stats_.dropped;
          break;
        case Verdict::kNow:
          ++stats_.forwarded;
          survivors.push_back(std::move(f));
          break;
        case Verdict::kLater:
          ++stats_.delayed;
          delayed.emplace_back(std::move(d), std::move(f));
          break;
      }
    }
  }
  for (auto& [d, f] : delayed) forward_later(d, to, std::move(f));
  if (!survivors.empty()) {
    Status st = inner_->send_batch(to, std::move(survivors));
    if (!st.is_ok() && first.is_ok()) first = st;
  }
  return first;
}

void FaultyTransport::forward_later(const FaultModel::Decision& d,
                                    const std::string& to, Frame frame) {
  auto payload = std::make_shared<Frame>(std::move(frame));
  faults_.defer(d, to, [this, to, payload] {
    {
      std::lock_guard lk(faults_.mu_);
      if (closed_ || faults_.killed_locked(to)) return;
    }
    Status st = inner_->send(to, std::move(*payload));
    if (!st.is_ok()) {
      SDVM_DEBUG("faulty") << "delayed send to " << to
                           << " failed: " << st.to_string();
    }
  });
}

void FaultyTransport::flush(const std::string& to) { inner_->flush(to); }

void FaultyTransport::close() {
  {
    std::lock_guard lk(faults_.mu_);
    if (closed_) return;
    closed_ = true;
  }
  faults_.stop();
  inner_->close();
}

FaultyTransport::Stats FaultyTransport::stats() const {
  std::lock_guard lk(faults_.mu_);
  return stats_;
}

}  // namespace sdvm::net
