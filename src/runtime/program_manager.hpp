// Program manager (paper §4): "maintains a list of all programs the local
// site currently works on", including each program's code home site,
// checkpoint sites, and the terminated flag that lets microthreads be
// "safely deleted from memory". Also answers program-info requests from
// sites that encounter frames of programs they have never seen.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "runtime/message.hpp"
#include "runtime/program.hpp"

namespace sdvm {

class Site;

class ProgramManager {
 public:
  explicit ProgramManager(Site& site) : site_(site) {}

  /// Home-site entry point: registers the program, stores its sources with
  /// the code manager, and fires the entry microframe.
  Result<ProgramId> start_program(const ProgramSpec& spec);

  void register_info(const ProgramInfo& info);
  [[nodiscard]] const ProgramInfo* find(ProgramId pid) const;

  /// Ensures the program is known locally, fetching the info from `hint`
  /// (typically the site that sent us a frame) if necessary. The callback
  /// runs under the site lock.
  void ensure_known(ProgramId pid, SiteId hint,
                    std::function<void(Status)> cb);

  /// Any site may call this (exit_program instruction); the home site
  /// broadcasts termination to the whole cluster.
  void terminate(ProgramId pid, std::int64_t exit_code);

  [[nodiscard]] bool is_terminated(ProgramId pid) const;
  [[nodiscard]] std::optional<std::int64_t> exit_code(ProgramId pid) const;

  /// Completion waiters (API Program::wait, sim run-until). Fires
  /// immediately if already terminated.
  void add_waiter(ProgramId pid, std::function<void(std::int64_t)> cb);

  [[nodiscard]] std::vector<ProgramId> active_programs() const;

  /// Every program that finished on this site, with its exit code
  /// (sdvmd prints these as they land on the frontend).
  [[nodiscard]] std::vector<std::pair<ProgramId, std::int64_t>>
  terminated_programs() const {
    return {terminated_.begin(), terminated_.end()};
  }

  void handle(const SdMessage& msg);

 private:
  void local_terminate(ProgramId pid, std::int64_t exit_code);

  Site& site_;
  std::uint32_t next_counter_ = 1;
  std::map<ProgramId, ProgramInfo> infos_;
  std::map<ProgramId, std::int64_t> terminated_;
  std::map<ProgramId, std::vector<std::function<void(std::int64_t)>>> waiters_;
  std::map<ProgramId, std::vector<std::function<void(Status)>>> info_pending_;
};

}  // namespace sdvm
