// WaitCell: where a microthread parks on a remote object fetch or a
// rerouted file access until the pump signals the reply or a failure. A
// worker thread blocks on the cv; a sim fiber yields until `done` is set.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.hpp"

namespace sdvm {

struct WaitCell {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  Status status;
  std::int64_t word = 0;  // memory accesses: the word
  std::string data;       // file reads: the contents

  void wait() {
    std::unique_lock lk(m);
    cv.wait(lk, [this] { return done; });
  }
  void signal(Status st, std::string d = {}) {
    {
      std::lock_guard lk(m);
      done = true;
      status = std::move(st);
      data = std::move(d);
    }
    cv.notify_all();
  }
};

}  // namespace sdvm
