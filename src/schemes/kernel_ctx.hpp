// Execution contexts for the baseline schemes.
//
// The same kernel source that BigKernel transforms (core/contexts.hpp) also
// runs under:
//  * CpuCtx       — direct host execution on a simulated CPU thread (the
//                   serial and multi-threaded CPU baselines), and
//  * GpuChunkCtx  — classic chunked GPU execution where the stream's current
//                   chunk sits in a device buffer in its original layout
//                   (the single- and double-buffer baselines).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/device_tables.hpp"
#include "core/engine.hpp"
#include "core/stream.hpp"
#include "gpusim/gpu.hpp"
#include "hostsim/host_cpu.hpp"

namespace bigk::schemes {

/// Host-side kernel execution: stream and table accesses run against host
/// memory through the cache model; alu() charges the CPU core.
class CpuCtx {
 public:
  /// Scalar execution: no warp-divergence inflation (see charge_alu()).
  static constexpr bool kSimd = false;

  CpuCtx(hostsim::HostThread& thread,
         std::vector<core::StreamBinding>& bindings, core::TableSet& tables)
      : thread_(thread), bindings_(bindings), tables_(tables) {}

  template <class T>
  T read(core::StreamRef<T> stream, std::uint64_t elem) {
    const core::StreamBinding& binding = bindings_[stream.id];
    thread_.read(binding.host_region, elem * sizeof(T), sizeof(T));
    return binding.load<T>(elem);
  }

  template <class T>
  void write(core::StreamRef<T> stream, std::uint64_t elem, const T& value) {
    core::StreamBinding& binding = bindings_[stream.id];
    thread_.write(binding.host_region, elem * sizeof(T), sizeof(T));
    binding.store<T>(elem, value);
  }

  template <class T>
  T load_table(core::TableRef<T> table, std::uint64_t index) {
    thread_.read(core::kTableRegionBase + table.id, index * sizeof(T),
                 sizeof(T));
    return tables_.host_span(table)[index];
  }

  template <class T>
  T load_addr_table(core::TableRef<T> table, std::uint64_t index) {
    return load_table(table, index);
  }

  template <class T>
  void store_table(core::TableRef<T> table, std::uint64_t index,
                   const T& value) {
    thread_.write(core::kTableRegionBase + table.id, index * sizeof(T),
                  sizeof(T));
    tables_.host_span(table)[index] = value;
  }

  template <class T>
  T atomic_add_table(core::TableRef<T> table, std::uint64_t index, T delta) {
    thread_.read(core::kTableRegionBase + table.id, index * sizeof(T),
                 sizeof(T));
    thread_.write(core::kTableRegionBase + table.id, index * sizeof(T),
                  sizeof(T));
    thread_.compute(2.0);  // lock prefix / CAS overhead
    T& slot = tables_.host_span(table)[index];
    const T old = slot;
    slot = static_cast<T>(old + delta);
    return old;
  }

  void alu(double ops) { thread_.compute(ops); }

 private:
  hostsim::HostThread& thread_;
  std::vector<core::StreamBinding>& bindings_;
  core::TableSet& tables_;
};

/// Chunked-GPU kernel execution: stream element `e` of stream `s` lives at
/// chunk_base[s] + (e - chunk_elem_begin[s]) * elem_size — the original
/// record layout, so coalescing reflects the source layout.
class GpuChunkCtx {
 public:
  struct ChunkView {
    std::uint64_t dev_base = 0;         // device offset of the chunk buffer
    std::uint64_t elem_begin = 0;       // first element resident
    std::uint64_t elem_count = 0;       // resident elements (with overfetch)
  };

  static constexpr bool kSimd = true;

  GpuChunkCtx(gpusim::LaneCtx& lane,
              const std::vector<core::StreamBinding>& bindings,
              const core::DeviceTables& tables,
              const std::vector<ChunkView>& chunks,
              std::vector<std::pair<std::uint32_t, std::uint64_t>>* writes)
      : lane_(lane),
        bindings_(bindings),
        tables_(tables),
        chunks_(chunks),
        writes_(writes) {}

  template <class T>
  T read(core::StreamRef<T> stream, std::uint64_t elem) {
    const ChunkView& view = chunks_[stream.id];
    check_resident(view, elem);
    const std::uint64_t addr =
        view.dev_base + (elem - view.elem_begin) * sizeof(T);
    return lane_.load(gpusim::DevicePtr<T>{addr});
  }

  template <class T>
  void write(core::StreamRef<T> stream, std::uint64_t elem, const T& value) {
    const ChunkView& view = chunks_[stream.id];
    check_resident(view, elem);
    const std::uint64_t addr =
        view.dev_base + (elem - view.elem_begin) * sizeof(T);
    lane_.store(gpusim::DevicePtr<T>{addr}, 0, value);
    writes_->emplace_back(stream.id, elem);
  }

  template <class T>
  T load_table(core::TableRef<T> table, std::uint64_t index) {
    return lane_.load(tables_.device_ptr(table), index);
  }
  template <class T>
  T load_addr_table(core::TableRef<T> table, std::uint64_t index) {
    return load_table(table, index);
  }
  template <class T>
  void store_table(core::TableRef<T> table, std::uint64_t index,
                   const T& value) {
    lane_.store(tables_.device_ptr(table), index, value);
  }
  template <class T>
  T atomic_add_table(core::TableRef<T> table, std::uint64_t index, T delta) {
    return lane_.atomic_add(tables_.device_ptr(table), index, delta);
  }
  void alu(double ops) { lane_.alu(ops); }

 private:
  /// Throws core::KernelContractError unless `elem` lies in the chunk's
  /// resident range (its records plus overfetch).
  static void check_resident(const ChunkView& view, std::uint64_t elem) {
    core::check_contract(elem >= view.elem_begin,
                         "chunk access below the resident elements", elem,
                         view.elem_begin);
    core::check_contract(elem - view.elem_begin < view.elem_count,
                         "chunk access past the resident elements",
                         elem - view.elem_begin, view.elem_count);
  }

  gpusim::LaneCtx& lane_;
  const std::vector<core::StreamBinding>& bindings_;
  const core::DeviceTables& tables_;
  const std::vector<ChunkView>& chunks_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>>* writes_;
};

}  // namespace bigk::schemes
