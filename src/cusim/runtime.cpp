#include "cusim/runtime.hpp"

#include <cassert>

namespace bigk::cusim {

Stream::~Stream() {
  if (state_ && !state_->ops.closed()) state_->ops.close();
}

std::uint64_t Stream::memcpy_h2d_async(std::uint64_t device_offset,
                                       const void* host_src,
                                       std::uint64_t bytes) {
  Op op;
  op.kind = Op::Kind::kH2D;
  op.host_src = host_src;
  op.device_offset = device_offset;
  op.bytes = bytes;
  state_->note_enqueue();
  state_->ops.push(op);
  return state_->enqueued;
}

void Stream::signal_flag(sim::Flag& flag, std::uint64_t value) {
  Op op;
  op.kind = Op::Kind::kFlag;
  op.flag = &flag;
  op.flag_value = value;
  state_->note_enqueue();
  state_->ops.push(op);
}

sim::Task<> Stream::synchronize() {
  auto state = state_;
  const std::uint64_t target = state->enqueued;
  co_await state->completed.wait_ge(target);
}

sim::Task<> Stream::wait_for(std::uint64_t op_id) {
  auto state = state_;
  co_await state->completed.wait_ge(op_id);
}

std::optional<fault::FaultKind> Stream::take_failure(std::uint64_t op_id) {
  const auto it = state_->failed.find(op_id);
  if (it == state_->failed.end()) return std::nullopt;
  const fault::FaultKind kind = it->second;
  state_->failed.erase(it);
  return kind;
}

namespace {

// Fault check for one copy op, run when the transfer's link time elapses. A
// faulted op still occupies the link and completes in order — like a real DMA
// engine, the error surfaces at completion — but the data is dropped
// (dma_error / device_lost), and the op id lands in State::failed for the
// owner to retry.
std::optional<fault::FaultKind> drop_fault(fault::FaultPlane* plane,
                                           std::uint32_t device,
                                           sim::TimePs now) {
  if (plane == nullptr) return std::nullopt;
  if (plane->should_inject(fault::FaultKind::kDeviceLost, device, now) ||
      plane->device_lost(device)) {
    return fault::FaultKind::kDeviceLost;
  }
  if (plane->should_inject(fault::FaultKind::kDmaError, device, now)) {
    return fault::FaultKind::kDmaError;
  }
  return std::nullopt;
}

// ecc_corrupt: the copy lands, then the device-arena bytes are
// deterministically corrupted — the injection site at the DeviceMemory
// boundary. A retried copy overwrites the corruption, which is exactly what
// the byte-exactness recovery tests prove.
bool ecc_fault(fault::FaultPlane* plane, std::uint32_t device,
               sim::TimePs now, gpusim::DeviceMemory& memory,
               std::uint64_t device_offset, std::uint64_t bytes) {
  if (plane == nullptr ||
      !plane->should_inject(fault::FaultKind::kEccCorrupt, device, now)) {
    return false;
  }
  auto span = memory.bytes_mut(device_offset, bytes);
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(bytes, 8); ++i) {
    span[i] ^= std::byte{0xff};
  }
  return true;
}

// bitflip_dma: after a clean copy, one bit of the landed device
// image flips — and *nothing* reports it. Unlike ecc_corrupt the op does not
// land in State::failed; the copy looks successful to the owner. Only the
// bigkdur post-DMA digest verification can tell, which is the point: with
// integrity off the corruption silently reaches compute.
void bitflip_fault(fault::FaultPlane* plane, std::uint32_t device,
                   sim::TimePs now, gpusim::DeviceMemory& memory,
                   std::uint64_t device_offset, std::uint64_t bytes) {
  if (plane == nullptr || bytes == 0 ||
      !plane->should_inject(fault::FaultKind::kBitflipDma, device, now)) {
    return;
  }
  auto span = memory.bytes_mut(device_offset, bytes);
  span[bytes / 2] ^= std::byte{0x01};
}

}  // namespace

sim::Task<> Stream::worker(std::shared_ptr<State> state) {
  while (true) {
    std::optional<Op> op = co_await state->ops.pop();
    if (!op) break;
    const sim::TimePs dequeued = state->sim.now();
    const std::uint64_t op_id = state->completed.value() + 1;
    switch (op->kind) {
      case Op::Kind::kH2D: {
        co_await state->gpu.h2d_transfer(op->bytes);
        std::optional<fault::FaultKind> fault =
            drop_fault(state->fault, state->device, state->sim.now());
        if (!fault) {
          auto dst =
              state->gpu.memory().bytes_mut(op->device_offset, op->bytes);
          std::memcpy(dst.data(), op->host_src, op->bytes);
          if (ecc_fault(state->fault, state->device, state->sim.now(),
                        state->gpu.memory(), op->device_offset, op->bytes)) {
            fault = fault::FaultKind::kEccCorrupt;
          } else {
            bitflip_fault(state->fault, state->device, state->sim.now(),
                          state->gpu.memory(), op->device_offset, op->bytes);
          }
        }
        if (fault) state->failed.emplace(op_id, *fault);
        break;
      }
      case Op::Kind::kFlag:
        op->flag->advance_to(op->flag_value);
        break;
    }
    if (state->tracer != nullptr) {
      const sim::TimePs done = state->sim.now();
      switch (op->kind) {
        case Op::Kind::kH2D:
          state->tracer->complete(
              state->track, "h2d", dequeued, done, "dma",
              {{"bytes", static_cast<double>(op->bytes)}});
          break;
        case Op::Kind::kFlag:
          state->tracer->instant(state->track, "signal flag", done, "dma");
          break;
      }
      state->tracer->counter_add(state->dma_pid, "queue depth", done, -1.0);
    }
    state->completed.increment();
  }
}

Stream Runtime::create_stream() {
  auto state = std::make_shared<Stream::State>(sim_, gpu_);
  state->fault = fault_plane_;
  state->device = fault_device_;
  if (tracer_ != nullptr) {
    state->tracer = tracer_;
    state->dma_pid = tracer_->process(trace_prefix() + "DMA streams");
    state->track = tracer_->thread(
        state->dma_pid, "stream " + std::to_string(stream_count_));
  }
  ++stream_count_;
  sim_.spawn_daemon(Stream::worker(state));
  return Stream(std::move(state));
}

}  // namespace bigk::cusim
