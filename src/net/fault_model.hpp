// FaultModel: the one seeded link and fault model. Both message fabrics
// consult it on every frame: InProcNetwork (threads and sim modes) and
// FaultyTransport (a decorator over real TCP). A fault scenario therefore
// means the same thing on every deployment.
//
// The rule table resolves per send, most specific first: an explicit
// (from, to) link, then the (zone(from), zone(to)) link, then the default
// link. The killed set and the partition cuts sit above the table. One
// frame is decided in this order; the first step that fires is final:
//   killed endpoint   → silent drop
//   partition         → silent drop
//   unknown endpoint  → kUnavailable (in-proc fabric only)
//   sever             → kUnavailable
//   loss draw         → silent drop
//   jitter draw       → extra delay
// Every random draw comes from one generator, so a run is replayable given
// (seed, send sequence).
//
// A frame with a delay leaves through the installed virtual-time
// DeliveryScheduler (sim mode) or, without one, the model's single
// wall-clock timer thread. Zero-delay frames are delivered inline by the
// fabric — except in sim mode, where the event loop owns every delivery.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace sdvm::net {

/// One rule for a directed link: its latency/bandwidth and its faults.
struct LinkModel {
  Nanos latency = 0;   // one-way propagation delay
  Nanos per_byte = 0;  // serialization cost per payload byte
  Nanos jitter = 0;    // uniform random extra delay in [0, jitter] —
                       // enough jitter REORDERS messages (the paper's
                       // UDP experience; our protocols must tolerate it)
  double loss = 0.0;   // silent drop probability in [0,1)
  bool sever = false;  // sends fail with kUnavailable: a cut the sender
                       // sees (partitions are the silent kind)
};

/// Hook letting the simulator own delayed delivery: schedule(delay, to, fn)
/// must run fn after `delay` of *virtual* time. `to` is the destination
/// address, so the simulator can tag the delivery with the acted-on site
/// (exploration mode reorders deliveries per-destination).
using DeliveryScheduler =
    std::function<void(Nanos, const std::string&, std::function<void()>)>;

class FaultModel {
 public:
  /// `seed` drives the loss and jitter draws.
  explicit FaultModel(std::uint64_t seed = 1);
  ~FaultModel();

  FaultModel(const FaultModel&) = delete;
  FaultModel& operator=(const FaultModel&) = delete;

  // --- rule table (thread-safe; effective for subsequent sends) ----------

  /// The rule for links with neither a per-pair nor a zone-pair rule.
  void set_default_link(LinkModel model);
  void set_link(const std::string& from, const std::string& to,
                LinkModel model);

  /// Hierarchical zones (SimGrid-style): assign endpoints to zones and give
  /// zone pairs a rule. Zone ids are small dense integers; a node with no
  /// zone uses the default link unless a per-pair rule exists.
  void set_node_zone(const std::string& address, int zone);
  void set_zone_link(int from_zone, int to_zone, LinkModel model);

  /// Kills an endpoint abruptly: all traffic to and from it vanishes,
  /// including frames already in flight to it. Models an uncontrolled
  /// site crash.
  void kill(const std::string& address);
  [[nodiscard]] bool is_killed(const std::string& address) const;

  /// Cuts every link between group A and group B (both directions).
  void partition(const std::vector<std::string>& a,
                 const std::vector<std::string>& b);
  /// Lifts every partition and clears the killed set.
  void heal();

  /// Installs a virtual-time scheduler (sim mode); see DeliveryScheduler.
  void set_delivery_scheduler(DeliveryScheduler scheduler);

 private:
  // The two fabrics guard their own per-frame state with mu_ as well, so
  // deciding and accounting a frame costs one lock acquisition.
  friend class InProcNetwork;
  friend class FaultyTransport;

  enum class Verdict {
    kNow,          // deliver inline, on the sender's thread
    kLater,        // hand the delivery to defer()
    kDrop,         // vanishes; the sender sees ok
    kUnavailable,  // the sender sees kUnavailable
  };
  struct Decision {
    Verdict verdict = Verdict::kNow;
    Nanos delay = 0;
    DeliveryScheduler scheduler = nullptr;  // kLater in sim mode
  };

  /// Requires mu_. Decides one frame of `bytes` from -> to; `known` says
  /// whether the fabric has an endpoint for `to`.
  Decision decide_locked(const std::string& from, const std::string& to,
                         std::size_t bytes, bool known);
  [[nodiscard]] bool killed_locked(const std::string& address) const {
    return killed_.contains(address);
  }
  /// Runs `fn` (a kLater frame's delivery) after `d.delay`: through the
  /// scheduler in sim mode, else on the timer thread. Call without mu_:
  /// a scheduler may run `fn` before it returns.
  void defer(const Decision& d, const std::string& to,
             std::function<void()> fn);
  /// Stops the timer thread; frames it still holds are dropped. Idempotent.
  void stop();

  [[nodiscard]] const LinkModel& resolve_locked(const std::string& from,
                                                const std::string& to) const;
  [[nodiscard]] bool partitioned_locked(const std::string& from,
                                        const std::string& to) const;
  void timer_loop();

  mutable std::mutex mu_;
  LinkModel default_link_;
  std::map<std::pair<std::string, std::string>, LinkModel> links_;
  std::unordered_map<std::string, int> node_zone_;
  std::map<std::pair<int, int>, LinkModel> zone_links_;
  std::unordered_set<std::string> killed_;
  /// Each partition() call cuts group A from group B; membership is a set
  /// test so a 500×500 split costs O(1) per send, not a 250k-pair scan.
  struct PartitionCut {
    std::unordered_set<std::string> a;
    std::unordered_set<std::string> b;
  };
  std::vector<PartitionCut> partitioned_;
  Xoshiro256 rng_;
  DeliveryScheduler scheduler_;

  // Wall-clock delayed delivery (no scheduler installed), under its own
  // lock so the timer never holds mu_ while it waits.
  std::mutex timer_mu_;
  struct Pending {
    Nanos due;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Pending& o) const {
      return std::tie(due, seq) > std::tie(o.due, o.seq);
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> delayed_;
  std::uint64_t delayed_seq_ = 0;
  std::condition_variable timer_cv_;
  std::thread timer_;
  bool stop_ = false;
};

}  // namespace sdvm::net
