// In-process message fabric. Endpoints are "inproc:<n>" strings. The fabric
// is the endpoint table, inline delivery, per-link traffic counters for the
// benches and a trace hook. Latency, loss, partitions, kills and delayed
// delivery belong to its FaultModel (faults()), which it asks for a verdict
// and a delay on every send.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "net/fault_model.hpp"
#include "net/transport.hpp"

namespace sdvm::net {

struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
};

class InProcNetwork;

/// One endpoint on the fabric; implements Transport. Batched sends use
/// the base-class default (send_batch loops send, flush is a no-op) on
/// purpose: the fabric has no wire to coalesce for, and looping keeps
/// the loss RNG and the trace hook firing once per frame — the same
/// per-frame contract the batched TCP path guarantees.
class InProcEndpoint final : public Transport {
 public:
  InProcEndpoint(InProcNetwork* net, std::string address, Receiver receiver)
      : net_(net), address_(std::move(address)), receiver_(std::move(receiver)) {}

  [[nodiscard]] std::string local_address() const override { return address_; }
  Status send(const std::string& to, std::vector<std::byte> bytes) override;
  void close() override;

 private:
  friend class InProcNetwork;
  InProcNetwork* net_;
  std::string address_;
  Receiver receiver_;
};

class InProcNetwork {
 public:
  /// seed drives the fault model's loss and jitter draws.
  explicit InProcNetwork(std::uint64_t seed = 1);
  ~InProcNetwork();

  InProcNetwork(const InProcNetwork&) = delete;
  InProcNetwork& operator=(const InProcNetwork&) = delete;

  /// Creates an endpoint; the fabric owns nothing — callers keep the
  /// unique_ptr alive as long as they want to receive.
  [[nodiscard]] std::unique_ptr<InProcEndpoint> attach(Receiver receiver);

  /// The link rules, kills, partitions and delivery scheduler.
  [[nodiscard]] FaultModel& faults() { return faults_; }

  /// Observes every send decision: (from, to, payload bytes, delivered).
  /// `delivered == false` means the fault model dropped or refused the
  /// message. Called under the fabric lock — the hook must not call back
  /// into the network.
  using TraceHook = std::function<void(const std::string&, const std::string&,
                                       std::size_t, bool)>;
  void set_trace_hook(TraceHook hook);

  [[nodiscard]] LinkStats total_stats() const;
  [[nodiscard]] LinkStats stats(const std::string& from,
                                const std::string& to) const;
  void reset_stats();

 private:
  friend class InProcEndpoint;

  Status send_from(const std::string& from, const std::string& to,
                   std::vector<std::byte> bytes);
  void detach(const std::string& address);
  void deliver(const std::string& to, std::vector<std::byte> bytes);

  // The fields below are guarded by faults_.mu_: one lock per send and one
  // per delivery covers the fault decision and the fabric's own tables.
  FaultModel faults_;
  std::unordered_map<std::string, InProcEndpoint*> endpoints_;
  std::map<std::pair<std::string, std::string>, LinkStats> stats_;
  TraceHook trace_;
  std::uint64_t next_id_ = 1;
};

}  // namespace sdvm::net
