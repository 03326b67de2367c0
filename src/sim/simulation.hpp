// Deterministic discrete-event simulation driver.
//
// A Simulation owns a virtual clock and an event queue of coroutine handles.
// Processes (spawned Tasks) advance the clock only through awaitables such as
// Simulation::delay() or the synchronization primitives in sync.hpp, so a run
// is fully deterministic: events at equal timestamps fire in insertion order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace bigk::sim {

/// Thrown by Simulation::run() when processes remain suspended but no event
/// can ever wake them (a lost-signal / synchronization bug in the model).
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Handle to a spawned process; join() awaits completion and rethrows any
/// exception the process raised.
class Process {
 public:
  Process() = default;

  bool valid() const noexcept { return static_cast<bool>(state_); }
  bool done() const noexcept { return state_ && state_->done; }

  /// Awaitable: suspends until the process finishes.
  auto join() {
    struct Awaiter {
      std::shared_ptr<detail::ProcessState> state;
      bool await_ready() const noexcept { return state->done; }
      void await_suspend(std::coroutine_handle<> waiter) {
        state->joiners.push_back(waiter);
      }
      void await_resume() const {
        if (state->error) {
          state->error_reported = true;
          std::rethrow_exception(state->error);
        }
      }
    };
    return Awaiter{state_};
  }

 private:
  friend class Simulation;
  explicit Process(std::shared_ptr<detail::ProcessState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::ProcessState> state_;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current virtual time.
  TimePs now() const noexcept { return now_; }

  /// Schedules `handle` to resume at absolute time `t` (>= now()).
  void schedule_at(TimePs t, std::coroutine_handle<> handle);

  /// Schedules `handle` to resume after `dt`.
  void schedule_in(DurationPs dt, std::coroutine_handle<> handle) {
    schedule_at(now_ + dt, handle);
  }

  /// Awaitable that suspends the caller for `dt` of virtual time. A zero
  /// delay still goes through the event queue (a deterministic yield).
  auto delay(DurationPs dt) {
    struct Awaiter {
      Simulation& sim;
      DurationPs dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        sim.schedule_in(dt, handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Starts `task` as an independent process at the current time.
  Process spawn(Task<> task);

  /// Starts `task` as a background service process: it is allowed to remain
  /// suspended (e.g. waiting on a work queue) when the event queue drains,
  /// and is destroyed with the Simulation. Used for stream/DMA workers.
  Process spawn_daemon(Task<> task);

  /// Runs until the event queue drains. Rethrows the first unjoined process
  /// error, or else throws DeadlockError if spawned processes remain
  /// unfinished.
  void run();

  /// Convenience: spawns `main`, runs to completion, rethrows its error.
  void run_until_complete(Task<> main);

  /// Number of events processed so far (useful for tests / profiling).
  std::uint64_t events_processed() const noexcept { return events_processed_; }

 private:
  struct Event {
    TimePs time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const Event& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  struct OwnedFrame {
    std::coroutine_handle<Task<>::promise_type> handle;
    std::shared_ptr<detail::ProcessState> state;
  };

  void reap_finished();

  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<OwnedFrame> processes_;
};

}  // namespace bigk::sim
