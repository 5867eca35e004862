#include "runtime/processing_manager.hpp"

#include <ucontext.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <utility>

#include "runtime/exec_context.hpp"
#include "runtime/site.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#define SDVM_ASAN(call) call
#else
#define SDVM_ASAN(call) (void)0
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define SDVM_TSAN(call) call
#else
#define SDVM_TSAN(call) (void)0
#endif

namespace sdvm {

namespace {
// Roomy for sanitizer frames; pages are committed only as they are touched.
constexpr std::size_t kStackBytes = 1024 * 1024;
}  // namespace

struct ProcessingManager::BodyResult {
  Status status;
  std::uint64_t cycles = 0;
  Nanos vm_ns = 0;  // wall nanos inside the VM loop (0 for native bodies)
};

ProcessingManager::BodyResult ProcessingManager::run_body(
    const Executable& exec, ExecContext& ctx) {
  if (exec.native != nullptr) {
    try {
      exec.native(ctx);
      return {Status::ok(), 0, 0};
    } catch (const microc::IntrinsicError& e) {
      return {Status::error(ErrorCode::kInternal, e.what()), 0, 0};
    } catch (const std::exception& e) {
      return {Status::error(ErrorCode::kInternal,
                            std::string("native microthread threw: ") +
                                e.what()),
              0, 0};
    }
  }
  auto started = std::chrono::steady_clock::now();
  // Fast path: the code manager pre-decoded and verified the artifact, so
  // the VM runs the direct-threaded unchecked loop. The decode-on-the-fly
  // fallback only covers executables built outside the code manager.
  auto result =
      exec.decoded != nullptr
          ? microc::Vm::run(*exec.decoded, *exec.bytecode, ctx)
          : microc::Vm::run(*exec.bytecode, ctx);
  Nanos vm_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  return {result.status, result.cycles, vm_ns};
}

/// Sim mode: an executor slot's ucontext fiber, pooled and reused by the
/// microthreads it runs; every switch is announced to ASan/TSan, which
/// would lose the stack.
struct ProcessingManager::SimThread {
  SimThread() : stack(std::make_unique_for_overwrite<char[]>(kStackBytes)) {
    SDVM_TSAN(tsan_fiber = __tsan_create_fiber(0));
  }
  ~SimThread() {
    if (!finished) std::abort();  // its frames would never be unwound
    SDVM_TSAN(__tsan_destroy_fiber(tsan_fiber));
  }
  SimThread(const SimThread&) = delete;  // makecontext holds `this`
  SimThread& operator=(const SimThread&) = delete;

  /// Binds a microthread to the fiber; the first resume() starts it.
  void start(Site& site, Microframe frame, ProgramInfo info, Executable e,
             Nanos now) {
    ctx.emplace(site, std::move(frame), std::move(info));
    exec = std::move(e);
    finished = false;
    charged_ns = 0;
    started_at = now;
    getcontext(&self);
    self.uc_stack.ss_sp = stack.get();
    self.uc_stack.ss_size = kStackBytes;
    // makecontext passes int arguments only: split the pointer.
    auto p = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&self, reinterpret_cast<void (*)()>(&SimThread::entry), 2,
                static_cast<unsigned>(p >> 32), static_cast<unsigned>(p));
  }

  /// From the pump: runs the microthread until it parks or finishes.
  void resume() {
    [[maybe_unused]] void* fake = nullptr;
    SDVM_ASAN(__sanitizer_start_switch_fiber(&fake, stack.get(), kStackBytes));
    SDVM_TSAN(tsan_caller = __tsan_get_current_fiber());
    SDVM_TSAN(__tsan_switch_to_fiber(tsan_fiber, 0));
    swapcontext(&caller, &self);
    SDVM_ASAN(__sanitizer_finish_switch_fiber(fake, nullptr, nullptr));
  }
  /// On the fiber: switches back to the resume() caller.
  void yield() {
    // A finished fiber passes no save slot, so ASan frees its fake stack.
    SDVM_ASAN(__sanitizer_start_switch_fiber(
        finished ? nullptr : &asan_fake_stack, caller_bottom, caller_size));
    SDVM_TSAN(__tsan_switch_to_fiber(tsan_caller, 0));
    swapcontext(&self, &caller);
    SDVM_ASAN(__sanitizer_finish_switch_fiber(asan_fake_stack, &caller_bottom,
                                              &caller_size));
  }

  std::optional<ExecContext> ctx;
  Executable exec;
  BodyResult result;
  bool finished = true;        // false while a microthread is bound
  WaitCell* parked = nullptr;  // set while the fiber is parked
  Nanos charged_ns = 0;        // compute already charged to the CPU
  Nanos started_at = 0;
  std::unique_ptr<char[]> stack;

 private:
  static void entry(unsigned hi, unsigned lo) {
    auto* t = reinterpret_cast<SimThread*>((std::uintptr_t{hi} << 32) | lo);
    SDVM_ASAN(__sanitizer_finish_switch_fiber(nullptr, &t->caller_bottom,
                                              &t->caller_size));
    t->result = run_body(t->exec, *t->ctx);
    t->finished = true;
    t->yield();  // never resumed again
  }

  ucontext_t self{};
  ucontext_t caller{};
  void* asan_fake_stack = nullptr;
  const void* caller_bottom = nullptr;
  std::size_t caller_size = 0;
  void* tsan_fiber = nullptr;
  void* tsan_caller = nullptr;
};

void ProcessingManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("proc.executed", &executed_total);
  registry.register_counter("proc.trapped", &trapped_total);
  registry.register_histogram("proc.runtime_ns", &runtime_ns);
  registry.register_histogram("proc.vm_dispatch_ns", &vm_dispatch_ns);
  registry.register_gauge("proc.running", [this] {
    return static_cast<std::int64_t>(running());
  });
}

void ProcessingManager::start_workers(int slots) {
  std::lock_guard lk(worker_mu_);
  if (!workers_.empty()) return;
  stopping_ = false;
  for (int i = 0; i < std::max(slots, 1); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ProcessingManager::ProcessingManager(Site& site) : site_(site) {}
ProcessingManager::~ProcessingManager() { stop(); }

void ProcessingManager::stop() {
  {
    std::lock_guard lk(worker_mu_);
    stopping_ = true;
  }
  worker_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Sim teardown: fail every parked wait and let each fiber unwind
  // normally before its stack is freed; its last messages are dropped.
  for (auto& t : sim_threads_) {
    current_ = t.get();
    site_.messages().set_defer(&t->ctx->deferred);
    while (!t->finished) {
      if (!t->parked->done) {
        t->parked->signal(
            Status::error(ErrorCode::kUnavailable, "site shut down"));
      }
      t->resume();
    }
    site_.messages().set_defer(nullptr);
  }
  current_ = nullptr;
  sim_threads_.clear();
}

void ProcessingManager::kick() {
  {
    std::lock_guard lk(worker_mu_);
    kicked_ = true;
  }
  worker_cv_.notify_all();
}

void ProcessingManager::wait_for_kick(Nanos max_ns) {
  std::unique_lock lk(worker_mu_);
  worker_cv_.wait_for(lk, std::chrono::nanoseconds(max_ns),
                      [this] { return kicked_ || stopping_; });
  kicked_ = false;
}

void ProcessingManager::worker_loop() {
  std::unique_lock lk(worker_mu_);
  while (!stopping_) {
    lk.unlock();
    // The 2 ms cap is only a safety net: a kick that lands between a
    // failed attempt and the sleep makes wait_for_kick return at once.
    if (!execute_once()) wait_for_kick(2'000'000);
    lk.lock();
  }
}

void ProcessingManager::finish(ExecContext& ctx, const BodyResult& r) {
  running_.fetch_sub(1, std::memory_order_relaxed);
  ++executed_total;
  if (r.vm_ns > 0) vm_dispatch_ns.record(r.vm_ns);
  AccountEntry& acct = ledger_[ctx.program()];
  acct.microthreads += 1;
  acct.vm_instructions += r.cycles;
  acct.charged_cycles += static_cast<std::uint64_t>(ctx.charged_cycles());
  site_.trace(FrameEvent::kConsumed, ctx.frame().id, ctx.frame().thread);
  if (!r.status.is_ok()) {
    ++trapped_total;
    SDVM_WARN(site_.tag()) << "microthread failed: " << r.status.to_string();
  }
  // Counted first, so whoever waits for the termination sees it counted.
  if (ctx.exit_requested()) {
    site_.programs().terminate(ctx.program(), ctx.exit_code());
  }
  site_.memory().relocate_leftovers();
}

bool ProcessingManager::execute_once() {
  Microframe frame;
  Executable exec;
  ProgramInfo info;
  {
    std::lock_guard lk(site_.lock());
    auto work = site_.scheduling().take_ready();
    if (!work.has_value()) return false;
    frame = std::move(work->frame);
    exec = std::move(work->exec);
    const ProgramInfo* pi = site_.programs().find(frame.program);
    if (pi == nullptr) return true;  // program vanished; consume the frame
    info = *pi;
    running_.fetch_add(1, std::memory_order_relaxed);
    site_.trace(FrameEvent::kExecutionStarted, frame.id, frame.thread);
  }
  ExecContext ctx(site_, std::move(frame), std::move(info));
  auto started = std::chrono::steady_clock::now();
  BodyResult r = run_body(exec, ctx);
  Nanos elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - started)
                      .count();
  {
    std::lock_guard lk(site_.lock());
    runtime_ns.record(elapsed);
    finish(ctx, r);
  }
  site_.driver().notify_work();
  return true;
}

Nanos ProcessingManager::execute_one_sim() {
  // Single-threaded by design, so `done` needs no lock. Signalled fibers
  // resume before new frames start, in start order (determinism).
  auto it = std::find_if(sim_threads_.begin(), sim_threads_.end(),
                         [](const auto& t) { return t->parked->done; });
  SimThread* t = it != sim_threads_.end() ? it->get() : nullptr;
  if (t == nullptr) {
    const auto slots = static_cast<std::size_t>(
        std::max(site_.config().executor_slots, 1));
    if (site_.signed_off() || sim_threads_.size() >= slots) return -1;
    auto work = site_.scheduling().take_ready();
    if (!work.has_value()) return -1;
    const ProgramInfo* pi = site_.programs().find(work->frame.program);
    if (pi == nullptr) return 1;  // consumed a stale frame: negligible cost
    if (spare_threads_.empty()) {
      spare_threads_.push_back(std::make_unique<SimThread>());
    }
    sim_threads_.push_back(std::move(spare_threads_.back()));
    spare_threads_.pop_back();
    it = sim_threads_.end() - 1;
    t = it->get();
    t->start(site_, std::move(work->frame), *pi, std::move(work->exec),
             site_.clock().now());
    site_.trace(FrameEvent::kExecutionStarted, t->ctx->frame().id,
                t->ctx->frame().thread);
    running_.fetch_add(1, std::memory_order_relaxed);
  }

  // One compute segment: to completion or to the next park. The fiber
  // takes the site lock itself, as a worker thread would.
  site_.messages().set_defer(&t->ctx->deferred);
  t->parked = nullptr;
  current_ = t;
  site_.lock().unlock();
  t->resume();
  site_.lock().lock();
  current_ = nullptr;

  // The segment costs the compute done since the last one (VM steps are
  // published at each load/store and final at completion).
  const bool done = t->finished;
  const std::uint64_t steps = done ? t->result.cycles : t->ctx->steps_executed;
  double speed = std::max(site_.config().speed, 1e-6);
  Nanos compute = static_cast<Nanos>(
      (static_cast<double>(steps) * site_.config().sim_nanos_per_instr +
       static_cast<double>(t->ctx->charged_cycles())) /
      speed);
  Nanos cost = std::max<Nanos>(compute - t->charged_ns, 1);
  t->charged_ns = compute;
  if (done) {
    // Still inside the deferred window: an exit's termination messages
    // leave with the results.
    finish(*t->ctx, t->result);
    runtime_ns.record(site_.clock().now() + cost - t->started_at);
  }
  site_.messages().set_defer(nullptr);

  // The segment's messages leave when it (virtually) ends: the results at
  // completion (paper §3.2 step 4: "send the results"), a fetch request
  // at the park.
  if (!t->ctx->deferred.empty()) {
    auto msgs = std::make_shared<std::vector<SdMessage>>(
        std::exchange(t->ctx->deferred, {}));
    site_.schedule_after(cost, [this, msgs] {
      // One burst: the transport groups by destination and coalesces.
      (void)site_.messages().send_burst(std::move(*msgs));
    });
  }
  if (done) {  // back to the pool; the next start() rebinds it
    spare_threads_.push_back(std::move(*it));
    sim_threads_.erase(it);
  }
  return cost;
}

void ProcessingManager::park(WaitCell& cell) {
  if (cell.done) return;  // signalled synchronously (a local grant)
  current_->parked = &cell;
  current_->yield();
}

}  // namespace sdvm
