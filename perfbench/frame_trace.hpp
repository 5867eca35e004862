// Frame-career tracing from outside the runtime (paper Fig. 5). One
// SiteTrace per site receives that site's FrameTraceHook calls, which run
// under the site lock, so a buffer is only ever appended to by one thread
// at a time and needs no lock of its own. Buffers are preallocated; a full
// buffer counts the records it drops instead of growing under the lock.
// Spans are joined by FrameId — a global address — after the run, so a
// span may start on one site and end on another.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "runtime/trace.hpp"

namespace perfbench {

struct TraceRecord {
  std::int64_t t_ns = 0;
  std::uint64_t frame = 0;
  sdvm::FrameEvent event = sdvm::FrameEvent::kCreated;
  std::uint8_t site = 0;
};

class SiteTrace {
 public:
  SiteTrace(std::uint8_t site, std::size_t capacity) : site_(site) {
    records_.reserve(capacity);
  }

  /// A hook stamping events with `now()` (steady_clock on threads, the
  /// virtual clock on the simulator). The SiteTrace must outlive it.
  sdvm::FrameTraceHook hook(std::function<std::int64_t()> now) {
    return [this, now = std::move(now)](sdvm::FrameEvent e, sdvm::FrameId f,
                                        sdvm::MicrothreadId) {
      if (e == sdvm::FrameEvent::kParamApplied ||
          e == sdvm::FrameEvent::kCodeRequested) {
        return;  // not a span boundary
      }
      if (records_.size() == records_.capacity()) {
        ++dropped_;
        return;
      }
      records_.push_back(TraceRecord{now(), f.value, e, site_});
    };
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint8_t site_;
  std::vector<TraceRecord> records_;
  std::uint64_t dropped_ = 0;
};

/// Span samples in microseconds, one vector per span name.
struct Spans {
  std::vector<double> fire_wait_us;      // created -> executable
  std::vector<double> code_resolve_us;   // executable -> ready
  std::vector<double> queue_wait_us;     // ready -> executing
  std::vector<double> exec_us;           // executing -> consumed
  std::vector<double> help_transfer_us;  // given-away -> adopted elsewhere
  std::uint64_t dropped = 0;

  void add(const Spans& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(fire_wait_us, o.fire_wait_us);
    cat(code_resolve_us, o.code_resolve_us);
    cat(queue_wait_us, o.queue_wait_us);
    cat(exec_us, o.exec_us);
    cat(help_transfer_us, o.help_transfer_us);
    dropped += o.dropped;
  }
};

/// Joins every site's records into per-frame careers and measures the
/// spans. Code resolution ends at a frame's first `ready`; queue wait
/// starts at its last `ready` before execution, so for a frame that moved
/// it is the wait on the executing site and the move is a help transfer.
inline Spans measure_spans(const std::vector<SiteTrace>& sites) {
  struct Career {
    std::int64_t created = -1, executable = -1, first_ready = -1,
                 last_ready = -1, executing = -1, consumed = -1;
    std::vector<std::pair<std::int64_t, std::uint8_t>> given, adopted;
  };
  Spans out;
  std::vector<TraceRecord> all;
  for (const auto& s : sites) {
    all.insert(all.end(), s.records().begin(), s.records().end());
    out.dropped += s.dropped();
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.t_ns < b.t_ns;
                   });
  std::unordered_map<std::uint64_t, Career> careers;
  careers.reserve(all.size() / 4 + 1);
  using sdvm::FrameEvent;
  for (const auto& r : all) {
    Career& c = careers[r.frame];
    auto first = [&](std::int64_t& slot) {
      if (slot < 0) slot = r.t_ns;
    };
    switch (r.event) {
      case FrameEvent::kCreated: first(c.created); break;
      case FrameEvent::kBecameExecutable: first(c.executable); break;
      case FrameEvent::kBecameReady:
        first(c.first_ready);
        if (c.executing < 0) c.last_ready = r.t_ns;
        break;
      case FrameEvent::kExecutionStarted: first(c.executing); break;
      case FrameEvent::kConsumed: first(c.consumed); break;
      case FrameEvent::kGivenAway: c.given.emplace_back(r.t_ns, r.site); break;
      case FrameEvent::kAdopted: c.adopted.emplace_back(r.t_ns, r.site); break;
      default: break;
    }
  }
  auto span = [](std::vector<double>& v, std::int64_t from, std::int64_t to) {
    if (from >= 0 && to >= from) {
      v.push_back(static_cast<double>(to - from) / 1000.0);
    }
  };
  for (const auto& [id, c] : careers) {
    span(out.fire_wait_us, c.created, c.executable);
    span(out.code_resolve_us, c.executable, c.first_ready);
    span(out.queue_wait_us, c.last_ready, c.executing);
    span(out.exec_us, c.executing, c.consumed);
    // Pair each hand-over with the next adoption on another site.
    std::size_t a = 0;
    for (const auto& [t, site] : c.given) {
      while (a < c.adopted.size() &&
             (c.adopted[a].first < t || c.adopted[a].second == site)) {
        ++a;
      }
      if (a == c.adopted.size()) break;
      span(out.help_transfer_us, t, c.adopted[a].first);
      ++a;
    }
  }
  return out;
}

}  // namespace perfbench
