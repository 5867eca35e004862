#include "api/engine_driver.hpp"

#include <algorithm>
#include <chrono>

namespace sdvm {

void EngineDriver::poke() {
  {
    std::lock_guard lk(m_);
    pending_ = true;
  }
  cv_.notify_all();
}

void EngineDriver::wait(Nanos max_ns) {
  std::unique_lock lk(m_);
  cv_.wait_for(lk, std::chrono::nanoseconds(max_ns),
               [this] { return pending_ || stopping_.load(); });
  pending_ = false;
}

void EngineDriver::stop() {
  {
    std::lock_guard lk(m_);
    stopping_.store(true);
  }
  cv_.notify_all();
}

void EngineDriver::run(const std::function<Nanos()>& pump) {
  while (!stopping()) {
    Nanos next = pump();
    Nanos sleep = next < 0 ? 2'000'000 : std::min<Nanos>(next, 2'000'000);
    wait(std::max<Nanos>(sleep, 10'000));
  }
}

}  // namespace sdvm
