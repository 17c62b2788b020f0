// Cooperative fibers built on POSIX ucontext.
//
// Every simulated hardware thread (a rank's main thread, its
// asynchronous progress thread) is a Fiber. Fibers are scheduled by
// sim::Engine strictly one at a time in virtual-time order, which makes
// the whole simulation deterministic and free of data races by
// construction: "concurrent" BG/Q threads interleave only at simulator
// blocking points, exactly like instruction interleavings resolved by
// a serializing memory system.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

// AddressSanitizer needs explicit fiber-switch annotations around
// swapcontext or it reports false stack-buffer-overflows (see
// google/sanitizers#189); these hooks are compiled in only under ASan.
#if defined(__SANITIZE_ADDRESS__)
#define PGASQ_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PGASQ_ASAN_FIBERS 1
#endif
#endif
#ifndef PGASQ_ASAN_FIBERS
#define PGASQ_ASAN_FIBERS 0
#endif

namespace pgasq::sim {

class Engine;

class Fiber {
 public:
  enum class State : std::uint8_t {
    kReady,     ///< spawned or resumed, waiting for the scheduler
    kRunning,   ///< currently executing
    kBlocked,   ///< suspended, waiting for resume()
    kFinished,  ///< body returned
  };

  /// Default stack size. Rank programs in this code base are shallow;
  /// the stack is mapped but not touched until used, so virtual
  /// address space is the only per-fiber reservation.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  const std::string& name() const { return name_; }
  State state() const { return state_; }
  std::uint64_t id() const { return id_; }

 private:
  friend class Engine;
  Fiber(Engine& engine, std::uint64_t id, std::string name,
        std::function<void()> body, std::size_t stack_bytes);

  /// Entry point reached via makecontext; receives `this` split into
  /// two ints (makecontext's argument ABI).
  static void trampoline(unsigned hi, unsigned lo);
  void run_body();
  void check_canary() const;

  Engine& engine_;
  std::uint64_t id_;
  /// Trace track (when the engine records a trace).
  std::uint32_t trace_track_ = 0xffffffffu;
  /// ASan fake-stack handle saved when this fiber switches away.
  void* asan_fake_stack_ = nullptr;
  std::string name_;
  std::function<void()> body_;
  std::size_t stack_bytes_;
  /// Releases a stack mapping of `bytes` bytes.
  struct StackUnmap {
    std::size_t bytes;
    void operator()(char* stack) const;
  };
  std::unique_ptr<char, StackUnmap> stack_{nullptr, StackUnmap{stack_bytes_}};
  ucontext_t context_{};
  State state_ = State::kReady;
};

}  // namespace pgasq::sim
