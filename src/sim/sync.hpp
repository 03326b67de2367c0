// Synchronization primitives for simulated processes.
//
// These model the paper's coordination mechanisms: memory flags that one side
// sets and the other busy-waits on (Flag), counted buffer tokens (Semaphore),
// and FIFO work queues between pipeline stages (Channel). All wakeups go
// through the simulation's event queue, preserving deterministic ordering.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/simulation.hpp"

namespace bigk::sim {

/// A monotonically increasing integer flag with waiters, modelling the
/// flag-in-memory signalling the paper uses between CPU and GPU (§IV.C).
/// set()/advance_to() only ever increase the value; waiters wake when the
/// value reaches their threshold.
class Flag {
 public:
  explicit Flag(Simulation& sim) : sim_(sim) {}
  Flag(const Flag&) = delete;
  Flag& operator=(const Flag&) = delete;

  std::uint64_t value() const noexcept { return value_; }

  /// Raises the flag to `v` (no-op if already >= v) and wakes satisfied
  /// waiters in FIFO order.
  void advance_to(std::uint64_t v) {
    if (v <= value_) return;
    value_ = v;
    std::size_t kept = 0;
    for (Waiter& waiter : waiters_) {
      if (waiter.threshold <= value_) {
        sim_.schedule_in(0, waiter.handle);
      } else {
        waiters_[kept++] = waiter;
      }
    }
    waiters_.resize(kept);
  }

  void increment() { advance_to(value_ + 1); }

  /// Awaitable: suspends until value() >= threshold.
  auto wait_ge(std::uint64_t threshold) {
    struct Awaiter {
      Flag& flag;
      std::uint64_t threshold;
      bool await_ready() const noexcept { return flag.value_ >= threshold; }
      void await_suspend(std::coroutine_handle<> handle) {
        flag.waiters_.push_back(Waiter{threshold, handle});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, threshold};
  }

 private:
  struct Waiter {
    std::uint64_t threshold;
    std::coroutine_handle<> handle;
  };

  Simulation& sim_;
  std::uint64_t value_ = 0;
  std::vector<Waiter> waiters_;
};

/// Counting semaphore with FIFO waiters; release() hands a token directly to
/// the oldest waiter, so acquisition order is deterministic.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::uint32_t initial)
      : sim_(sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::uint32_t available() const noexcept { return count_; }

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const noexcept {
        if (sem.count_ > 0 && sem.waiters_.empty()) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> handle) {
        sem.waiters_.push_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Takes a token without suspending; false when none is immediately
  /// available (or waiters are queued ahead). Used to permanently withhold
  /// ring tokens when a block degrades to a shallower buffer depth.
  bool try_acquire() {
    if (count_ > 0 && waiters_.empty()) {
      --count_;
      return true;
    }
    return false;
  }

  void release() {
    if (!waiters_.empty()) {
      std::coroutine_handle<> next = waiters_.front();
      waiters_.pop_front();
      sim_.schedule_in(0, next);  // token passes directly to the waiter
    } else {
      ++count_;
    }
  }

 private:
  Simulation& sim_;
  std::uint32_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel between pipeline stages. close() wakes all blocked
/// consumers; pop() then yields std::nullopt once drained.
///
/// Intended for a single consumer (each pipeline stage in this codebase has
/// exactly one); with multiple concurrent consumers a woken waiter may race a
/// fresh pop() for the same item and observe an empty channel.
template <class T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void push(T value) {
    assert(!closed_ && "push after close");
    items_.push_back(std::move(value));
    wake_one();
  }

  void close() {
    closed_ = true;
    while (!waiters_.empty()) {
      sim_.schedule_in(0, waiters_.front());
      waiters_.pop_front();
    }
  }

  bool closed() const noexcept { return closed_; }
  std::size_t size() const noexcept { return items_.size(); }

  /// Awaitable: yields the next item, or std::nullopt if the channel is
  /// closed and empty.
  auto pop() {
    struct Awaiter {
      Channel& channel;
      bool await_ready() const noexcept {
        return !channel.items_.empty() || channel.closed_;
      }
      void await_suspend(std::coroutine_handle<> handle) {
        channel.waiters_.push_back(handle);
      }
      std::optional<T> await_resume() {
        if (channel.items_.empty()) return std::nullopt;
        T value = std::move(channel.items_.front());
        channel.items_.pop_front();
        return value;
      }
    };
    return Awaiter{*this};
  }

 private:
  void wake_one() {
    if (!waiters_.empty()) {
      sim_.schedule_in(0, waiters_.front());
      waiters_.pop_front();
    }
  }

  Simulation& sim_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
  bool closed_ = false;
};

}  // namespace bigk::sim
