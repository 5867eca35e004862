// Driver: the seam between a Site (the daemon) and whatever is driving it —
// an engine thread per site (threads/tcp modes) or the discrete-event
// simulator (sim mode). The Site never sleeps or spins itself; it asks the
// driver to pump it again later.
#pragma once

#include "common/types.hpp"

namespace sdvm {

class Driver {
 public:
  virtual ~Driver() = default;

  /// Guarantees Site::pump() runs within `delay` from now (timer support).
  virtual void request_wakeup(Nanos delay) = 0;

  /// Pump soon: new inbox data or freshly ready work.
  virtual void notify_work() = 0;

  /// True when time is virtual and execution is driven by the event loop
  /// (microthreads on fibers, one computing at a time per site).
  [[nodiscard]] virtual bool simulated() const { return false; }
};

}  // namespace sdvm
