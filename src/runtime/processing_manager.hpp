// Processing manager (paper §4): executes microthreads. "If it is idle, it
// requests a pair of an executable microframe and its corresponding
// microthread from the scheduling manager." Latency hiding: up to
// `executor_slots` microthreads run in (virtual) parallel — the paper
// found "a number of about 5 ... produce good results".
//
// A microthread that misses on remote memory or a rerouted file parks on
// a WaitCell while the real protocol runs; the other slots keep the site
// busy. In threaded modes a slot is a worker thread, and parking blocks
// it. In sim mode a slot is a fiber over one virtual CPU per site: the
// pump runs one compute segment at a time (to completion or to a park),
// charges its virtual cost, and resumes signalled fibers first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "runtime/accounting.hpp"
#include "runtime/code_manager.hpp"
#include "runtime/frame.hpp"
#include "runtime/metrics.hpp"
#include "runtime/wait_cell.hpp"

namespace sdvm {

class ExecContext;
class Site;

class ProcessingManager {
 public:
  explicit ProcessingManager(Site& site);
  ~ProcessingManager();

  /// Threaded modes: spins up the worker pool.
  void start_workers(int slots);
  void stop();

  /// New ready work may be available — wake an idle worker.
  void kick();
  /// A worker's idle sleep: returns at once if kicked since the last call
  /// returned (so a kick before the sleep is not lost), else after
  /// `max_ns` or on stop().
  void wait_for_kick(Nanos max_ns);

  /// Sim mode, by the pump under the site lock: runs one compute segment
  /// of a signalled parked fiber, else of a new frame if a slot is free.
  /// Returns the segment's virtual cost, or -1 if there was nothing to run.
  Nanos execute_one_sim();

  /// Sim mode, on a microthread's fiber: yields until `cell` is signalled.
  void park(WaitCell& cell);

  /// Executes one microthread in the caller's thread (the worker body).
  /// Returns false if no work was available.
  bool execute_once();

  [[nodiscard]] int running() const {
    return running_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool idle() const { return running() == 0; }

  /// Registers this manager's instruments ("proc." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

  // The live "proc.*" instruments that register_metrics() publishes;
  // Site::introspect() snapshots them.
  metrics::Counter executed_total;     // guarded by the site lock
  metrics::Counter trapped_total;
  /// Microthread runtime, parked time included: wall nanos in threaded
  /// modes, virtual nanos in sim mode (both recorded under the site lock).
  metrics::Histogram runtime_ns;
  /// Wall nanos spent inside the VM dispatch loop for bytecode
  /// microthreads (all modes) — the interpreter-overhead component of
  /// runtime_ns, separated so bench/overhead_sequential can attribute
  /// MicroC-vs-native overhead to the VM rather than SDVM machinery.
  metrics::Histogram vm_dispatch_ns;

  /// Per-program contribution ledger (guarded by the site lock).
  [[nodiscard]] const AccountLedger& accounting() const { return ledger_; }

 private:
  struct BodyResult;
  struct SimThread;
  /// Runs the microthread body.
  static BodyResult run_body(const Executable& exec, ExecContext& ctx);
  void worker_loop();
  /// Shared completion bookkeeping (site lock held): counts the
  /// microthread, then terminates its program if it called exit.
  void finish(ExecContext& ctx, const BodyResult& r);

  Site& site_;
  std::vector<std::thread> workers_;
  std::mutex worker_mu_;
  std::condition_variable worker_cv_;
  bool stopping_ = false;
  bool kicked_ = false;  // guarded by worker_mu_
  std::atomic<int> running_{0};
  AccountLedger ledger_;

  // Sim mode: started-but-unfinished microthreads in start order (the
  // fixed resume order), the one on the CPU, and idle pooled fibers.
  std::vector<std::unique_ptr<SimThread>> sim_threads_;
  SimThread* current_ = nullptr;
  std::vector<std::unique_ptr<SimThread>> spare_threads_;
};

}  // namespace sdvm
