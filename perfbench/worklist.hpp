// Stand-alone sequential baseline: the paper's "stand-alone program" of
// §5. It runs a ProgramSpec's microthreads on one thread with a FIFO
// worklist of fired frames and direct intrinsic dispatch — no managers,
// no messages, no locks. The bytecode is what the code manager runs:
// microc::compile(source, name) followed by microc::decode.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "microc/compiler.hpp"
#include "microc/decode.hpp"
#include "microc/vm.hpp"
#include "runtime/program.hpp"

namespace perfbench {

class Worklist final : public sdvm::microc::IntrinsicHandler {
 public:
  /// Compiles and decodes every thread; ok() reports whether all did.
  explicit Worklist(const sdvm::ProgramSpec& spec) : spec_(spec) {
    for (const auto& t : spec.threads) {
      auto compiled = sdvm::microc::compile(t.source, t.name);
      if (!compiled.is_ok()) return;
      auto decoded = sdvm::microc::decode(compiled.value());
      if (!decoded.is_ok()) return;
      code_.push_back(std::move(compiled).value());
      decoded_.push_back(std::move(decoded).value());
    }
    ok_ = true;
  }

  [[nodiscard]] bool ok() const { return ok_; }

  /// Runs the program to exit() or until no frame is left. Returns false
  /// when a microthread traps or the program never exits.
  bool run() {
    if (!ok_) return false;
    std::int64_t root = spawn(spec_.entry, 1);
    send(root, 0, 0);
    while (!exited_ && !ready_.empty()) {
      current_ = ready_.front();
      ready_.pop_front();
      auto tid = static_cast<std::size_t>(frames_[current_].thread);
      auto result = sdvm::microc::Vm::run(decoded_[tid], code_[tid], *this);
      if (!result.status.is_ok() || failed_) return false;
      frames_[current_].params.clear();
      ++executed_;
    }
    return exited_;
  }

  [[nodiscard]] std::int64_t exit_code() const { return exit_code_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] const std::vector<std::int64_t>& outputs() const {
    return outputs_;
  }

  // IntrinsicHandler -----------------------------------------------------
  std::int64_t param(std::int64_t i) override {
    return frames_[current_].params.at(static_cast<std::size_t>(i));
  }
  std::int64_t num_params() override {
    return static_cast<std::int64_t>(frames_[current_].params.size());
  }
  std::int64_t spawn(const std::string& name, std::int64_t n) override {
    auto id = static_cast<std::int64_t>(frames_.size());
    Frame f;
    f.thread = thread_index(name);
    f.params.assign(static_cast<std::size_t>(n), 0);
    f.missing = n;
    frames_.push_back(std::move(f));
    if (n == 0) ready_.push_back(id);
    return id;
  }
  void send(std::int64_t frame, std::int64_t slot,
            std::int64_t value) override {
    if (frame < 0 || frame >= static_cast<std::int64_t>(frames_.size())) {
      failed_ = true;
      return;
    }
    Frame& f = frames_[static_cast<std::size_t>(frame)];
    f.params.at(static_cast<std::size_t>(slot)) = value;
    if (--f.missing == 0) ready_.push_back(frame);
  }
  std::int64_t alloc(std::int64_t n) override {
    std::int64_t a = next_addr_++;
    heap_[a].assign(static_cast<std::size_t>(n), 0);
    return a;
  }
  std::int64_t load(std::int64_t a, std::int64_t i) override {
    return heap_.at(a).at(static_cast<std::size_t>(i));
  }
  void store(std::int64_t a, std::int64_t i, std::int64_t v) override {
    heap_.at(a).at(static_cast<std::size_t>(i)) = v;
  }
  void out(std::int64_t v) override { outputs_.push_back(v); }
  void out_str(const std::string&) override {}
  void charge(std::int64_t) override {}
  std::int64_t self_site() override { return 0; }
  std::int64_t arg(std::int64_t i) override {
    return spec_.args.at(static_cast<std::size_t>(i));
  }
  std::int64_t num_args() override {
    return static_cast<std::int64_t>(spec_.args.size());
  }
  void exit_program(std::int64_t code) override {
    exited_ = true;
    exit_code_ = code;
  }

 private:
  struct Frame {
    std::int64_t thread = 0;
    std::vector<std::int64_t> params;
    std::int64_t missing = 0;
  };

  std::int64_t thread_index(const std::string& name) {
    for (std::size_t i = 0; i < spec_.threads.size(); ++i) {
      if (spec_.threads[i].name == name) return static_cast<std::int64_t>(i);
    }
    failed_ = true;
    return 0;
  }

  const sdvm::ProgramSpec& spec_;
  std::vector<sdvm::microc::Program> code_;
  std::vector<sdvm::microc::DecodedProgram> decoded_;
  std::vector<Frame> frames_;  // indexed by frame id; params freed on run
  std::deque<std::int64_t> ready_;
  std::unordered_map<std::int64_t, std::vector<std::int64_t>> heap_;
  std::vector<std::int64_t> outputs_;
  std::size_t current_ = 0;
  std::int64_t next_addr_ = 1;
  std::uint64_t executed_ = 0;
  std::int64_t exit_code_ = -1;
  bool ok_ = false;
  bool exited_ = false;
  bool failed_ = false;
};

}  // namespace perfbench
