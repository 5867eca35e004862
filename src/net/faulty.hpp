// FaultyTransport: the fault model over any Transport. Before forwarding a
// frame to the inner transport (in practice a TcpTransport), it asks its
// FaultModel for a verdict on the link (local address → peer), so a real
// socket deployment faces the same rules as the in-process fabric:
//
//   * loss      — the frame vanishes silently (the caller still sees
//                 Status::ok, exactly like a lost UDP datagram);
//   * latency / per_byte / jitter
//               — delivery is deferred on the model's wall-clock timer
//                 (enough jitter REORDERS frames, the paper's UDP
//                 experience);
//   * sever     — the send fails immediately with kUnavailable;
//   * kill / partition
//               — the frame vanishes silently, and a kill also swallows
//                 frames the timer still holds for that peer.
//
// Rules are set through faults(); Options::base is the default link.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_model.hpp"
#include "net/transport.hpp"

namespace sdvm::net {

class FaultyTransport final : public Transport {
 public:
  struct Options {
    std::uint64_t seed = 1;  // drives the model's loss and jitter draws
    LinkModel base;          // the model's default link
  };

  struct Stats {
    std::uint64_t dropped = 0;
    std::uint64_t delayed = 0;
    std::uint64_t severed = 0;
    std::uint64_t forwarded = 0;  // reached the inner transport directly
  };

  FaultyTransport(std::unique_ptr<Transport> inner, Options options);
  ~FaultyTransport() override;
  FaultyTransport(const FaultyTransport&) = delete;
  FaultyTransport& operator=(const FaultyTransport&) = delete;

  [[nodiscard]] std::string local_address() const override { return self_; }
  Status send(const std::string& to, std::vector<std::byte> bytes) override;
  /// Decides every frame of the burst individually — the RNG consumes
  /// decisions in frame order, exactly as if each frame had been sent
  /// alone — then forwards the survivors as one batch.
  Status send_batch(const std::string& to, std::vector<Frame> frames) override;
  /// Forwards to the inner transport (delayed frames flush when due).
  void flush(const std::string& to) override;
  void close() override;

  /// The link rules, kills and partitions this transport obeys.
  [[nodiscard]] FaultModel& faults() { return faults_; }
  [[nodiscard]] Stats stats() const;

 private:
  /// Forwards a delayed frame once due, unless the peer died meanwhile.
  void forward_later(const FaultModel::Decision& d, const std::string& to,
                     Frame frame);

  std::unique_ptr<Transport> inner_;
  const std::string self_;
  FaultModel faults_;
  Stats stats_;          // guarded by faults_.mu_
  bool closed_ = false;  // guarded by faults_.mu_
};

}  // namespace sdvm::net
