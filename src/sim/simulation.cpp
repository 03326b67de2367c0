#include "sim/simulation.hpp"

#include <cassert>
#include <utility>

namespace bigk::sim {

namespace detail {

void notify_process_done(ProcessState& state) noexcept {
  assert(state.simulation != nullptr);
  for (std::coroutine_handle<> joiner : state.joiners) {
    state.simulation->schedule_in(0, joiner);
  }
  state.joiners.clear();
}

}  // namespace detail

Simulation::~Simulation() {
  // Destroy remaining frames (finished or not). Suspended coroutines are
  // destroyed at their suspension point, releasing their locals.
  for (OwnedFrame& frame : processes_) {
    if (frame.handle) frame.handle.destroy();
  }
}

void Simulation::schedule_at(TimePs t, std::coroutine_handle<> handle) {
  assert(t >= now_ && "cannot schedule into the past");
  queue_.push(Event{t, next_seq_++, handle});
}

Process Simulation::spawn(Task<> task) {
  auto handle = task.release();
  assert(handle && "cannot spawn an empty task");
  auto state = std::make_shared<detail::ProcessState>();
  state->simulation = this;
  handle.promise().process = state;
  processes_.push_back(OwnedFrame{handle, state});
  schedule_in(0, handle);
  return Process(state);
}

Process Simulation::spawn_daemon(Task<> task) {
  Process process = spawn(std::move(task));
  process.state_->daemon = true;
  return process;
}

void Simulation::run() {
  while (!queue_.empty()) {
    Event event = queue_.top();
    queue_.pop();
    assert(event.time >= now_);
    now_ = event.time;
    ++events_processed_;
    event.handle.resume();
    if ((events_processed_ & 0xFFFF) == 0) reap_finished();
  }
  // Queue drained. A process that failed comes first: its peers may still
  // wait for what it would have done, so its error names the cause.
  for (const OwnedFrame& frame : processes_) {
    if (frame.state && frame.state->error && !frame.state->error_reported) {
      frame.state->error_reported = true;
      std::rethrow_exception(frame.state->error);
    }
  }
  // Otherwise every spawned process must have finished, or the model lost a
  // wakeup.
  std::size_t stuck = 0;
  for (const OwnedFrame& frame : processes_) {
    if (frame.state && !frame.state->done && !frame.state->daemon) ++stuck;
  }
  if (stuck != 0) {
    throw DeadlockError("simulation deadlock: " + std::to_string(stuck) +
                        " process(es) suspended with an empty event queue");
  }
}

void Simulation::run_until_complete(Task<> main) {
  Process process = spawn(std::move(main));
  run();
  if (process.state_->error) std::rethrow_exception(process.state_->error);
}

void Simulation::reap_finished() {
  std::erase_if(processes_, [](OwnedFrame& frame) {
    if (frame.state && frame.state->done && !frame.state->error) {
      frame.handle.destroy();
      return true;
    }
    return false;
  });
}

}  // namespace bigk::sim
