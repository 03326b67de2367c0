// Tests for Flag / Semaphore / Channel / FifoServer, the
// primitives the BigKernel pipeline synchronization is built on.
#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace bigk::sim {
namespace {

TEST(FlagTest, WaitReturnsImmediatelyWhenSatisfied) {
  Simulation sim;
  sim.run_until_complete([](Simulation& s) -> Task<> {
    Flag flag(s);
    flag.advance_to(5);
    co_await flag.wait_ge(3);
    EXPECT_EQ(s.now(), 0u);
  }(sim));
}

TEST(FlagTest, WaitBlocksUntilAdvanced) {
  Simulation sim;
  Flag flag(sim);
  TimePs woke_at = 0;
  sim.spawn([](Simulation& s, Flag& f, TimePs& out) -> Task<> {
    co_await f.wait_ge(2);
    out = s.now();
  }(sim, flag, woke_at));
  sim.spawn([](Simulation& s, Flag& f) -> Task<> {
    co_await s.delay(microseconds(1));
    f.increment();  // value 1: not enough
    co_await s.delay(microseconds(1));
    f.increment();  // value 2: wakes waiter
  }(sim, flag));
  sim.run();
  EXPECT_EQ(woke_at, microseconds(2));
}

TEST(FlagTest, AdvanceToIsMonotonic) {
  Simulation sim;
  Flag flag(sim);
  flag.advance_to(10);
  flag.advance_to(4);  // no-op
  EXPECT_EQ(flag.value(), 10u);
}

TEST(FlagTest, MultipleWaitersWakeInOrder) {
  Simulation sim;
  Flag flag(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Flag& f, std::vector<int>& out, int id) -> Task<> {
      co_await f.wait_ge(1);
      out.push_back(id);
    }(flag, order, i));
  }
  sim.spawn([](Simulation& s, Flag& f) -> Task<> {
    co_await s.delay(nanoseconds(1));
    f.increment();
  }(sim, flag));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SemaphoreTest, AcquireConsumesTokens) {
  Simulation sim;
  sim.run_until_complete([](Simulation& s) -> Task<> {
    Semaphore sem(s, 2);
    co_await sem.acquire();
    co_await sem.acquire();
    EXPECT_EQ(sem.available(), 0u);
    sem.release();
    EXPECT_EQ(sem.available(), 1u);
  }(sim));
}

TEST(SemaphoreTest, BlockedAcquirerWakesOnRelease) {
  Simulation sim;
  Semaphore sem(sim, 1);
  TimePs acquired_at = 0;
  sim.spawn([](Simulation& s, Semaphore& sm, TimePs& out) -> Task<> {
    co_await sm.acquire();  // takes the only token
    co_await s.delay(microseconds(5));
    sm.release();
    (void)out;
  }(sim, sem, acquired_at));
  sim.spawn([](Simulation& s, Semaphore& sm, TimePs& out) -> Task<> {
    co_await sm.acquire();
    out = s.now();
  }(sim, sem, acquired_at));
  sim.run();
  EXPECT_EQ(acquired_at, microseconds(5));
}

TEST(SemaphoreTest, WaitersServedFifo) {
  Simulation sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Semaphore& sm, std::vector<int>& out, int id) -> Task<> {
      co_await sm.acquire();
      out.push_back(id);
      sm.release();
    }(sem, order, i));
  }
  sim.spawn([](Simulation& s, Semaphore& sm) -> Task<> {
    co_await s.delay(nanoseconds(1));
    sm.release();
  }(sim, sem));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ChannelTest, PopReturnsPushedItemsInOrder) {
  Simulation sim;
  sim.run_until_complete([](Simulation& s) -> Task<> {
    Channel<int> ch(s);
    ch.push(1);
    ch.push(2);
    EXPECT_EQ((co_await ch.pop()).value(), 1);
    EXPECT_EQ((co_await ch.pop()).value(), 2);
  }(sim));
}

TEST(ChannelTest, PopBlocksUntilPush) {
  Simulation sim;
  Channel<int> ch(sim);
  std::optional<int> got;
  TimePs got_at = 0;
  sim.spawn([](Simulation& s, Channel<int>& c, std::optional<int>& out,
               TimePs& at) -> Task<> {
    out = co_await c.pop();
    at = s.now();
  }(sim, ch, got, got_at));
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task<> {
    co_await s.delay(microseconds(2));
    c.push(9);
  }(sim, ch));
  sim.run();
  EXPECT_EQ(got, 9);
  EXPECT_EQ(got_at, microseconds(2));
}

TEST(ChannelTest, CloseDrainsToNullopt) {
  Simulation sim;
  std::vector<int> received;
  bool saw_end = false;
  Channel<int> ch(sim);
  sim.spawn([](Channel<int>& c, std::vector<int>& out, bool& end) -> Task<> {
    while (true) {
      std::optional<int> item = co_await c.pop();
      if (!item) {
        end = true;
        break;
      }
      out.push_back(*item);
    }
  }(ch, received, saw_end));
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task<> {
    c.push(1);
    co_await s.delay(nanoseconds(10));
    c.push(2);
    c.close();
  }(sim, ch));
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{1, 2}));
  EXPECT_TRUE(saw_end);
}

TEST(FifoServerTest, SerializesOverlappingRequests) {
  Simulation sim;
  FifoServer server(sim, "link");
  std::vector<TimePs> done_at(2);
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Simulation& s, FifoServer& srv, TimePs& out) -> Task<> {
      co_await srv.request(microseconds(10));
      out = s.now();
    }(sim, server, done_at[static_cast<std::size_t>(i)]));
  }
  sim.run();
  EXPECT_EQ(done_at[0], microseconds(10));
  EXPECT_EQ(done_at[1], microseconds(20));
  EXPECT_EQ(server.busy_time(), microseconds(20));
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(FifoServerTest, IdleGapsDoNotCountAsBusy) {
  Simulation sim;
  FifoServer server(sim, "link");
  sim.run_until_complete([](Simulation& s, FifoServer& srv) -> Task<> {
    co_await srv.request(microseconds(1));
    co_await s.delay(microseconds(100));
    co_await srv.request(microseconds(1));
  }(sim, server));
  EXPECT_EQ(server.busy_time(), microseconds(2));
}

TEST(FifoServerTest, PostThenDrainWaitsForCompletion) {
  Simulation sim;
  FifoServer server(sim, "dma");
  TimePs drained_at = 0;
  sim.run_until_complete([](Simulation& s, FifoServer& srv,
                            TimePs& out) -> Task<> {
    srv.post(microseconds(3));
    srv.post(microseconds(4));
    co_await srv.drain();
    out = s.now();
  }(sim, server, drained_at));
  EXPECT_EQ(drained_at, microseconds(7));
}

TEST(FifoServerTest, ZeroCostRequestIsImmediate) {
  Simulation sim;
  sim.run_until_complete([](Simulation& s) -> Task<> {
    FifoServer srv(s, "x");
    co_await srv.request(0);
    EXPECT_EQ(s.now(), 0u);
  }(sim));
}

// The in-order property the paper's flag-after-data DMA trick relies on:
// a small "flag" transfer posted after a large data transfer must not
// complete before the data.
TEST(FifoServerTest, InOrderCompletionForFlagAfterData) {
  Simulation sim;
  FifoServer dma(sim, "dma");
  TimePs data_done = 0;
  TimePs flag_done = 0;
  sim.spawn([](Simulation& s, FifoServer& d, TimePs& out) -> Task<> {
    co_await d.request(milliseconds(5));  // big data buffer
    out = s.now();
  }(sim, dma, data_done));
  sim.spawn([](Simulation& s, FifoServer& d, TimePs& out) -> Task<> {
    co_await s.delay(nanoseconds(1));     // enqueued just after the data
    co_await d.request(nanoseconds(10));  // tiny flag copy
    out = s.now();
  }(sim, dma, flag_done));
  sim.run();
  EXPECT_GT(flag_done, data_done);
}

}  // namespace
}  // namespace bigk::sim
