#include "runtime/exec_context.hpp"

#include <mutex>

#include "runtime/site.hpp"

namespace sdvm {

namespace {
[[noreturn]] void abort_thread(const std::string& what) {
  // Both native and bytecode microthreads unwind through this; the
  // processing manager logs the trap and consumes the frame.
  throw microc::IntrinsicError(what);
}
}  // namespace

ExecContext::ExecContext(Site& site, Microframe frame, ProgramInfo info)
    : site_(site), frame_(std::move(frame)), info_(std::move(info)) {}

int ExecContext::num_params() const {
  return static_cast<int>(frame_.params.size());
}

std::int64_t ExecContext::param_int(int index) const {
  if (index < 0 || index >= num_params()) {
    abort_thread("parameter index " + std::to_string(index) +
                 " out of range");
  }
  try {
    return frame_.param_int(static_cast<std::size_t>(index));
  } catch (const DecodeError& e) {
    abort_thread(e.what());
  }
}

std::span<const std::byte> ExecContext::param_bytes(int index) const {
  if (index < 0 || index >= num_params()) {
    abort_thread("parameter index " + std::to_string(index) +
                 " out of range");
  }
  return frame_.params[static_cast<std::size_t>(index)];
}

int ExecContext::num_args() const {
  return static_cast<int>(info_.args.size());
}

std::int64_t ExecContext::arg(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= info_.args.size()) {
    abort_thread("program argument index " + std::to_string(index) +
                 " out of range");
  }
  return info_.args[static_cast<std::size_t>(index)];
}

GlobalAddress ExecContext::spawn(std::string_view thread_name, int nparams,
                                 int priority) {
  if (nparams < 0) abort_thread("negative parameter count");
  auto tid = info_.thread_by_name(std::string(thread_name));
  if (!tid.has_value()) {
    abort_thread("spawn of unknown microthread '" + std::string(thread_name) +
                 "'");
  }
  std::lock_guard lk(site_.lock());
  return site_.memory().create_frame(info_.id, *tid,
                                     static_cast<std::size_t>(nparams),
                                     priority);
}

void ExecContext::send_int(GlobalAddress frame, int slot, std::int64_t value) {
  send_bytes(frame, slot, to_bytes(value));
}

void ExecContext::send_bytes(GlobalAddress frame, int slot,
                             std::span<const std::byte> value) {
  if (slot < 0) abort_thread("negative slot");
  std::lock_guard lk(site_.lock());
  Status st = site_.memory().apply_param(
      frame, static_cast<std::size_t>(slot),
      std::vector<std::byte>(value.begin(), value.end()));
  if (!st.is_ok()) {
    SDVM_WARN(site_.tag()) << "send to frame " << frame.value
                           << " slot " << slot << ": " << st.to_string();
  }
}

GlobalAddress ExecContext::alloc_global(std::int64_t nwords) {
  if (nwords < 0) abort_thread("negative allocation size");
  std::lock_guard lk(site_.lock());
  return site_.memory().alloc_object(info_.id, nwords);
}

std::int64_t ExecContext::mem_access(GlobalAddress addr, std::int64_t index,
                                     std::optional<std::int64_t> store) {
  std::shared_ptr<WaitCell> wait;
  {
    std::lock_guard lk(site_.lock());
    auto r = site_.memory().access(addr, index, store, &wait);
    if (wait == nullptr) {
      if (!r.is_ok()) abort_thread(r.status().to_string());
      return r.value();
    }
  }
  await(*wait, "");  // the access was performed when the object landed
  return wait->word;
}

void ExecContext::out(std::int64_t value) {
  std::lock_guard lk(site_.lock());
  site_.io().output_int(info_.id, value);
}

void ExecContext::out_str(std::string_view text) {
  std::lock_guard lk(site_.lock());
  site_.io().output_str(info_.id, std::string(text));
}

std::string ExecContext::file_access(std::string_view path,
                                     std::optional<std::string> write) {
  const char* what = write.has_value() ? "file_write: " : "file_read: ";
  std::shared_ptr<WaitCell> wait;
  {
    std::lock_guard lk(site_.lock());
    auto r = site_.io().file_access(std::string(path), std::move(write), &wait);
    if (wait == nullptr) {
      if (!r.is_ok()) abort_thread(what + r.status().to_string());
      return std::move(r).value();
    }
  }
  await(*wait, what);
  return wait->data;
}

void ExecContext::await(WaitCell& cell, const char* what) {
  // Called without the site lock. A worker thread blocks; a sim fiber
  // yields its virtual CPU until the pump signals the cell.
  if (site_.driver().simulated()) {
    site_.processing().park(cell);
  } else {
    cell.wait();
  }
  if (!cell.status.is_ok()) abort_thread(what + cell.status.to_string());
}

void ExecContext::exit_program(std::int64_t code) {
  // Terminated by the processing manager once this microthread is counted.
  exit_requested_ = true;
  exit_code_ = code;
}

void ExecContext::charge(std::int64_t cycles) {
  if (cycles > 0) charged_ += cycles;
}

SiteId ExecContext::site() const {
  return site_.id();
}

}  // namespace sdvm
