// Transport abstraction (the network manager's lowest layer). The paper's
// network manager "works with physical (ip) addresses only" — a transport
// moves opaque frames between string-addressed endpoints. Three
// implementations exist:
//   * InProcNetwork  — message fabric inside one process (the threads mode
//     and, via a scheduler hook, sim mode)
//   * TcpTransport   — real sockets, a single epoll event loop per daemon,
//     length-prefixed multi-frame batches on the wire (the paper's
//     deployment)
//   * FaultyTransport — decorator over any of the above
// InProcNetwork and FaultyTransport both ask one seeded FaultModel
// (net/fault_model.hpp) for latency, loss, sever, kill and partition
// verdicts, per frame even inside a batch.
//
// The batched contract shared by all three:
//   * send() submits ONE frame; implementations may transparently coalesce
//     it with neighbours into a batch (flush on size threshold or
//     deadline), so delivery of a single frame can lag by the flush
//     deadline unless flush() is called.
//   * send_batch() submits a burst the caller already knows belongs
//     together; fault rules and delivery stay per-frame.
//   * the Receiver is invoked once PER FRAME, never per batch — batching
//     is invisible above the transport.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace sdvm::net {

/// One opaque datagram payload as the runtime sees it (no wire framing).
using Frame = std::vector<std::byte>;

/// Callback invoked with each received frame — exactly one call per frame,
/// including frames that traveled inside a multi-frame batch. May be called
/// from any thread; implementations must only enqueue.
using Receiver = std::function<void(std::vector<std::byte>)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// The physical address other endpoints use to reach this one.
  [[nodiscard]] virtual std::string local_address() const = 0;

  /// Sends one frame. Delivery is best-effort and ordered per link for
  /// TCP; the in-proc fabric is ordered unless the fault model reorders.
  virtual Status send(const std::string& to,
                      std::vector<std::byte> bytes) = 0;

  /// Sends a burst of frames to one peer. Best-effort per frame: a frame
  /// that fails does not stop later frames; the first non-ok status is
  /// returned. The default implementation loops over send(); batching
  /// transports enqueue the whole burst under one lock and coalesce it
  /// into as few wire batches as the flush policy allows.
  virtual Status send_batch(const std::string& to, std::vector<Frame> frames) {
    Status first = Status::ok();
    for (auto& f : frames) {
      Status st = send(to, std::move(f));
      if (!st.is_ok() && first.is_ok()) first = st;
    }
    return first;
  }

  /// Asks a coalescing transport to ship everything parked for `to` now
  /// instead of waiting for the size/deadline flush. No-op by default
  /// (non-batching transports deliver eagerly).
  virtual void flush(const std::string& to) { (void)to; }

  /// Stops delivering and releases resources.
  virtual void close() = 0;
};

}  // namespace sdvm::net
