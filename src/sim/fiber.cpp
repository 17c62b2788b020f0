#include "sim/fiber.hpp"

#include <sys/mman.h>

#include <cstring>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace pgasq::sim {

namespace {
// Written at the low end of each stack; checked on every scheduler
// re-entry to catch silent stack overflow.
constexpr std::uint64_t kStackCanary = 0x9a6b5c4d3e2f1a0bULL;
}  // namespace

Fiber::Fiber(Engine& engine, std::uint64_t id, std::string name,
             std::function<void()> body, std::size_t stack_bytes)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_bytes_(stack_bytes) {
  PGASQ_CHECK(stack_bytes_ >= 16 * 1024, << "fiber stack too small: " << stack_bytes_);
  // A private mapping per stack, not the heap: pages are committed only
  // on touch and go back to the system when the fiber is destroyed, so
  // the resident size of a run does not depend on where the allocator
  // happened to place earlier, already-touched stacks.
  void* stack = mmap(nullptr, stack_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  PGASQ_CHECK(stack != MAP_FAILED,
              << "fiber stack mmap of " << stack_bytes_ << " bytes failed");
  stack_.reset(static_cast<char*>(stack));
  std::memcpy(stack_.get(), &kStackCanary, sizeof kStackCanary);

  PGASQ_CHECK(getcontext(&context_) == 0);
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_bytes_;
  context_.uc_link = nullptr;  // trampoline never returns; it swaps out

  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
}

Fiber::~Fiber() = default;

void Fiber::StackUnmap::operator()(char* stack) const { munmap(stack, bytes); }

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self)->run_body();
}

void Fiber::run_body() {
  engine_.asan_back_in_fiber(*this);  // first entry on this stack
  try {
    body_();
  } catch (...) {
    engine_.set_pending_exception(std::current_exception());
  }
  state_ = State::kFinished;
  engine_.on_fiber_finished(*this);
  // Return control to the scheduler; this context is never resumed.
  engine_.switch_to_scheduler(*this);
  PGASQ_UNREACHABLE("finished fiber resumed");
}

void Fiber::check_canary() const {
  std::uint64_t value;
  std::memcpy(&value, stack_.get(), sizeof value);
  PGASQ_CHECK(value == kStackCanary,
              << "stack overflow detected in fiber '" << name_ << "' (" << stack_bytes_
              << " bytes)");
}

}  // namespace pgasq::sim
