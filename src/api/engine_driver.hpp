// EngineDriver: the wall-clock Driver behind one site's engine thread
// (threads and TCP modes). The site pokes it when work arrives or a timer
// is due; run() pumps the site and sleeps until the next timer, a poke or
// the 2 ms cap, whichever comes first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>

#include "runtime/driver.hpp"

namespace sdvm {

class EngineDriver final : public Driver {
 public:
  /// The engine recomputes its sleep from Site::pump(), so a wakeup request
  /// is just a poke.
  void request_wakeup(Nanos) override { poke(); }
  void notify_work() override { poke(); }

  /// Sleeps up to `max_ns`. Returns at once if a poke arrived since the
  /// last wait returned — a poke that lands between pump() and wait() is
  /// not lost — or once stop() was called.
  void wait(Nanos max_ns);
  void stop();
  [[nodiscard]] bool stopping() const { return stopping_.load(); }

  /// The engine loop, on the calling thread until stop(): pump() returns
  /// the delay to the next timer (<0 = none).
  void run(const std::function<Nanos()>& pump);

 private:
  void poke();

  std::mutex m_;
  std::condition_variable cv_;
  bool pending_ = false;  // guarded by m_
  std::atomic<bool> stopping_{false};
};

}  // namespace sdvm
