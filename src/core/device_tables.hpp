// Materialization of kernel tables into simulated device memory.
//
// Tables (cluster arrays, dictionaries, hash tables, index arrays) are the
// explicitly-managed device data of the paper's examples: copied up before
// the kernel runs, copied back afterwards, and accessed by GPU threads with
// ordinary (traced, coalescing-modelled) loads and stores.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stream.hpp"
#include "cusim/runtime.hpp"
#include "gpusim/device_memory.hpp"
#include "sim/task.hpp"

namespace bigk::core {

class DeviceTables {
 public:
  DeviceTables() = default;

  /// Allocates device storage for every table in `tables` and synchronously
  /// copies the host contents up (charging PCIe time).
  static sim::Task<DeviceTables> upload(cusim::Runtime& runtime,
                                        TableSet& tables) {
    DeviceTables device;
    device.runtime_ = &runtime;
    device.tables_ = &tables;
    for (std::uint32_t id = 0; id < tables.size(); ++id) {
      const std::uint64_t offset =
          runtime.gpu().memory().allocate_bytes(tables.table_bytes(id));
      device.offsets_.push_back(offset);
      co_await runtime.memcpy_h2d_bytes(offset, tables.raw_bytes(id));
    }
    co_return device;
  }

  /// Copies every table's device contents back into the host TableSet
  /// (results of GPU runs, charged as one transfer per table).
  sim::Task<> download() {
    for (std::uint32_t id = 0; id < offsets_.size(); ++id) {
      co_await runtime_->memcpy_d2h_bytes(tables_->raw_bytes(id),
                                          offsets_[id]);
    }
  }

  /// Frees the device allocations (idempotent).
  void release() {
    if (!runtime_) return;
    for (const std::uint64_t offset : offsets_) {
      runtime_->gpu().memory().free_offset(offset);
    }
    offsets_.clear();
    runtime_ = nullptr;
  }

  template <class T>
  gpusim::DevicePtr<T> device_ptr(TableRef<T> ref) const {
    return gpusim::DevicePtr<T>{offsets_.at(ref.id)};
  }

 private:
  cusim::Runtime* runtime_ = nullptr;
  TableSet* tables_ = nullptr;
  std::vector<std::uint64_t> offsets_;  // device offset per table id
};

}  // namespace bigk::core
