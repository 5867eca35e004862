// Scheduling manager (paper §3.3, §4, Figure 5): keeps a queue of
// *executable* microframes (all parameters present) and a queue of *ready*
// microframes (corresponding microthread code resolved). Local order is
// FIFO by default ("to avoid starving"); help requests are answered from
// the LIFO end ("to hide the communication latencies"). Idle sites send
// help requests to targets chosen by the cluster manager.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_set>

#include "common/config.hpp"
#include "runtime/code_manager.hpp"
#include "runtime/frame.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class Site;

struct ReadyWork {
  Microframe frame;
  Executable exec;
};

class SchedulingManager {
 public:
  explicit SchedulingManager(Site& site) : site_(site) {}

  /// A frame with all parameters arrived (from the attraction memory or a
  /// help reply). Requests its microthread from the code manager.
  void on_executable(Microframe frame);

  /// Processing manager pulls work. Policy-ordered (FIFO default).
  [[nodiscard]] std::optional<ReadyWork> take_ready();
  [[nodiscard]] std::size_t queued_total() const {
    return executable_.size() + ready_.size();
  }

  /// Called by the site when the whole execution layer is starving: no
  /// queued work, nothing running. Issues a help request (rate-limited).
  void on_starving();

  void handle(const SdMessage& msg);
  void drop_program(ProgramId pid);

  /// Checkpoint support: serializes queued frames; restore re-enqueues.
  [[nodiscard]] std::vector<Microframe> snapshot_frames(ProgramId pid) const;
  void clear_program_frames(ProgramId pid);

  /// Freeze: stop handing out work (checkpoint quiescence).
  void set_frozen(bool frozen) { frozen_ = frozen; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Registers this manager's instruments ("sched." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

  // The live "sched.*" instruments that register_metrics() publishes.
  metrics::Counter help_requests_sent;
  metrics::Counter help_frames_given;
  metrics::Counter help_frames_received;
  metrics::Counter cant_help_received;
  metrics::Counter frames_enqueued;     // entered the executable queue
  metrics::Counter starvation_events;   // starving with no help target

 private:
  void on_code_ready(FrameId id, Result<Executable> exec);
  void schedule_retry();
  /// Picks a frame to give away for a help request, or nullopt.
  [[nodiscard]] std::optional<Microframe> pick_frame_to_give();

  Site& site_;
  std::deque<Microframe> executable_;   // waiting for code resolution
  std::deque<ReadyWork> ready_;
  std::unordered_set<std::uint64_t> code_pending_;  // FrameId.value
  std::unordered_map<std::uint64_t, int> code_retry_;
  static constexpr int kMaxCodeRetries = 50;
  bool help_in_flight_ = false;
  Nanos last_help_request_ = -1;
  std::vector<SiteId> help_excluded_;   // targets that said can't-help
  bool frozen_ = false;
};

}  // namespace sdvm
