// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <alloca.h>
#include <malloc.h>

#include <fstream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace pgasq::sim {
namespace {

using namespace pgasq::literals;

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(Engine, SameTimeEventsFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RejectsPastEventsAndNegativeDelay) {
  Engine engine;
  engine.schedule_at(10, [&] {
    EXPECT_THROW(engine.schedule_at(5, [] {}), Error);
    EXPECT_THROW(engine.schedule_after(-1, [] {}), Error);
  });
  engine.run();
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(kInvalidEvent));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) engine.schedule_after(1, recur);
  };
  engine.schedule_at(0, recur);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.now(), 4);
}

TEST(Fiber, SleepAdvancesVirtualTime) {
  Engine engine;
  Time woke = -1;
  engine.spawn("sleeper", [&] {
    engine.sleep_for(5_us);
    woke = engine.now();
    engine.sleep_until(20_us);
    EXPECT_EQ(engine.now(), 20_us);
  });
  engine.run();
  EXPECT_EQ(woke, 5_us);
  EXPECT_EQ(engine.live_fibers(), 0u);
}

TEST(Fiber, SuspendResumeHandshake) {
  Engine engine;
  Fiber* worker = nullptr;
  std::vector<std::string> log;
  worker = &engine.spawn("worker", [&] {
    log.push_back("w:start");
    engine.suspend();
    log.push_back("w:resumed@" + std::to_string(engine.now()));
  });
  engine.spawn("controller", [&] {
    engine.sleep_for(100);
    log.push_back("c:resume");
    engine.resume(*worker, 50);
  });
  engine.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "w:start");
  EXPECT_EQ(log[1], "c:resume");
  EXPECT_EQ(log[2], "w:resumed@150");
}

TEST(Fiber, ManyFibersInterleaveDeterministically) {
  // Two identical runs must produce identical traces.
  auto run_once = [] {
    Engine engine;
    std::vector<int> trace;
    for (int f = 0; f < 8; ++f) {
      engine.spawn("f" + std::to_string(f), [&trace, &engine, f] {
        for (int i = 0; i < 5; ++i) {
          engine.sleep_for((f + 1) * 10);
          trace.push_back(f * 100 + i);
        }
      });
    }
    engine.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Fiber, ExceptionPropagatesToRun) {
  Engine engine;
  engine.spawn("thrower", [] { throw Error("boom from fiber"); });
  try {
    engine.run();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Fiber, DeadlockDetected) {
  Engine engine;
  engine.spawn("stuck", [&] { engine.suspend(); });
  try {
    engine.run();
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stuck"), std::string::npos);
  }
}

TEST(Fiber, YieldLetsSameTimeEventsRun) {
  Engine engine;
  std::vector<int> order;
  engine.spawn("y", [&] {
    engine.schedule_after(0, [&] { order.push_back(1); });
    engine.yield();
    order.push_back(2);
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Fiber, DoubleResumeRejected) {
  Engine engine;
  Fiber* w = nullptr;
  w = &engine.spawn("w", [&] { engine.suspend(); });
  engine.spawn("c", [&] {
    engine.sleep_for(1);
    engine.resume(*w);
    EXPECT_THROW(engine.resume(*w), Error);  // already ready
  });
  engine.run();
}

TEST(Fiber, SleepOutsideFiberRejected) {
  Engine engine;
  EXPECT_THROW(engine.sleep_for(1), Error);
  EXPECT_THROW(engine.suspend(), Error);
}

TEST(Fiber, StackTooSmallRejected) {
  Engine engine;
  EXPECT_THROW(engine.spawn("tiny", [] {}, 1024), Error);
}

TEST(Fiber, CurrentTracksRunningFiber) {
  Engine engine;
  EXPECT_EQ(engine.current(), nullptr);
  engine.spawn("me", [&] {
    ASSERT_NE(engine.current(), nullptr);
    EXPECT_EQ(engine.current()->name(), "me");
  });
  engine.run();
  EXPECT_EQ(engine.current(), nullptr);
}

/// Resident memory of this process in KiB, from /proc/self/statm.
long resident_kib() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * 4;
}

TEST(Fiber, StackPagesGoBackWithTheEngine) {
  // Have the allocator keep every freed block, as glibc does with
  // stack-sized blocks once it has raised its thresholds in a long
  // run. Touched stack pages must still leave with their fibers, or a
  // run's resident size depends on where earlier stacks were placed.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  constexpr int kFibers = 32;
  constexpr std::size_t kTouchBytes = 192 * 1024;
  constexpr long kTouchedKib = kFibers * static_cast<long>(kTouchBytes / 1024);
  const long before = resident_kib();
  {
    Engine engine;
    for (int f = 0; f < kFibers; ++f) {
      engine.spawn("deep" + std::to_string(f), [] {
        auto* frame = static_cast<volatile char*>(alloca(kTouchBytes));
        for (std::size_t i = 0; i < kTouchBytes; i += 4096) frame[i] = 1;
      });
    }
    engine.run();
    EXPECT_GT(resident_kib() - before, kTouchedKib * 3 / 4);
  }
  EXPECT_LT(resident_kib() - before, kTouchedKib / 2);
}

}  // namespace
}  // namespace pgasq::sim
