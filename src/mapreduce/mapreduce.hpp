// MapReduce over BigKernel — the paper's stated future work (§VIII: "we
// plan on applying BigKernel to MapReduce").
//
// A MapReduceJob streams an arbitrarily large record array through a
// user-provided Mapper that emits (key, value) pairs. The pairs are
// combined GPU-side into a bucketed aggregate table (sum + count per
// bucket, merged with atomics — the combiner must therefore be
// commutative-associative, which covers count/sum/mean/histogram jobs),
// and reduced host-side by a user Reducer after the kernel completes.
//
// Because the map kernel is an ordinary streaming kernel, the whole job
// runs under any execution scheme — CPU, chunked GPU, demand paging, or
// BigKernel — which is exactly how the framework is validated.
//
// Usage:
//   struct TemperatureMapper {
//     template <class Record, class Emitter>
//     void operator()(const Record& record, Emitter& emit) const {
//       emit(record.field(0) /*station*/, record.field(2) /*temp*/);
//       emit.cost(5);
//     }
//   };
//   mr::MapReduceJob<std::uint64_t, TemperatureMapper> job(
//       std::span(records), /*elems_per_record=*/4, /*reads=*/3,
//       TemperatureMapper{}, /*buckets=*/1 << 14);
//   auto result = mr::run(job, schemes::Scheme::kBigKernel, config, sc);
//   // result.buckets[b].sum / result.buckets[b].count ...
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/stream.hpp"
#include "schemes/runners.hpp"

namespace bigk::mr {

/// One combined bucket of the shuffle/combine table.
struct Bucket {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};

/// The reduced output: per-bucket aggregates (buckets with count 0 held no
/// keys).
struct MapReduceResult {
  std::vector<Bucket> buckets;
  schemes::RunMetrics metrics;

  std::uint64_t total_pairs() const {
    std::uint64_t total = 0;
    for (const Bucket& bucket : buckets) total += bucket.count;
    return total;
  }
};

namespace detail {

/// Read-only view of one input record, handed to the Mapper.
template <class Ctx, class T>
class RecordView {
 public:
  RecordView(Ctx& ctx, core::StreamRef<T> stream, std::uint64_t record,
             std::uint32_t elems_per_record)
      : ctx_(ctx),
        stream_(stream),
        base_(record * elems_per_record),
        elems_(elems_per_record) {}

  /// The i-th element of this record (i < elems_per_record).
  T field(std::uint32_t i) const {
    return ctx_.read(stream_, base_ + i);
  }
  std::uint32_t size() const noexcept { return elems_; }

 private:
  Ctx& ctx_;
  core::StreamRef<T> stream_;
  std::uint64_t base_;
  std::uint32_t elems_;
};

/// GPU/CPU-side combiner: emit(key, value) folds the pair into its bucket.
template <class Ctx>
class Emitter {
 public:
  Emitter(Ctx& ctx, core::TableRef<std::uint64_t> sums,
          core::TableRef<std::uint64_t> counts, std::uint32_t buckets)
      : ctx_(ctx), sums_(sums), counts_(counts), buckets_(buckets) {}

  void operator()(std::uint64_t key, std::uint64_t value) {
    const std::uint64_t bucket = key % buckets_;
    ctx_.atomic_add_table(sums_, bucket, value);
    ctx_.atomic_add_table(counts_, bucket, std::uint64_t{1});
  }

  /// Charges `ops` of per-record map work (divergence-inflated on SIMD
  /// contexts like any kernel arithmetic).
  void cost(double ops, double warp_divergence = 1.5) {
    ctx_.alu(Ctx::kSimd ? ops * warp_divergence : ops);
  }

 private:
  Ctx& ctx_;
  core::TableRef<std::uint64_t> sums_;
  core::TableRef<std::uint64_t> counts_;
  std::uint32_t buckets_;
};

/// The streaming kernel the framework generates around the Mapper.
template <class T, class Mapper>
struct MapKernel {
  core::StreamRef<T> input{0};
  core::TableRef<std::uint64_t> sums;
  core::TableRef<std::uint64_t> counts;
  std::uint32_t elems_per_record = 1;
  std::uint32_t buckets = 1;
  Mapper mapper;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    Emitter<Ctx> emit(ctx, sums, counts, buckets);
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      RecordView<Ctx, T> record(ctx, input, r, elems_per_record);
      mapper(record, emit);
    }
  }
};

}  // namespace detail

/// A configured job: the input stream, the mapper, and the combiner shape.
/// Satisfies the scheme-runner application interface, so any scheme can
/// execute it.
template <class T, class Mapper>
class MapReduceJob {
 public:
  MapReduceJob(std::span<T> input, std::uint32_t elems_per_record,
               std::uint32_t reads_per_record, Mapper mapper,
               std::uint32_t buckets)
      : input_(input),
        elems_per_record_(elems_per_record),
        reads_per_record_(reads_per_record),
        mapper_(std::move(mapper)),
        buckets_(buckets) {
    sums_ = tables_.add<std::uint64_t>(buckets);
    counts_ = tables_.add<std::uint64_t>(buckets);
  }

  // --- scheme-runner application interface ---
  void reset() {
    for (auto& v : tables_.host_span(sums_)) v = 0;
    for (auto& v : tables_.host_span(counts_)) v = 0;
  }
  std::uint64_t num_records() const {
    return input_.size() / elems_per_record_;
  }
  core::TableSet& tables() { return tables_; }
  bool interleaved_records() const { return true; }

  std::vector<schemes::StreamDecl> stream_decls() {
    schemes::StreamDecl decl;
    decl.binding.host_data = reinterpret_cast<const std::byte*>(input_.data());
    decl.binding.num_elements = input_.size();
    decl.binding.elem_size = sizeof(T);
    decl.binding.mode = core::AccessMode::kReadOnly;
    decl.binding.elems_per_record = elems_per_record_;
    decl.binding.reads_per_record = reads_per_record_;
    return {decl};
  }

  using Kernel = detail::MapKernel<T, Mapper>;
  Kernel kernel() const {
    return Kernel{{0}, sums_, counts_, elems_per_record_, buckets_, mapper_};
  }

  // --- results ---
  std::vector<Bucket> reduce() const {
    std::vector<Bucket> buckets(buckets_);
    auto sums = tables_.host_span(sums_);
    auto counts = tables_.host_span(counts_);
    for (std::uint32_t b = 0; b < buckets_; ++b) {
      buckets[b].sum = sums[b];
      buckets[b].count = counts[b];
    }
    return buckets;
  }

  std::uint32_t num_buckets() const noexcept { return buckets_; }

 private:
  std::span<T> input_;
  std::uint32_t elems_per_record_;
  std::uint32_t reads_per_record_;
  Mapper mapper_;
  std::uint32_t buckets_;
  core::TableSet tables_;
  core::TableRef<std::uint64_t> sums_;
  core::TableRef<std::uint64_t> counts_;
};

/// Runs the map+combine phases under `scheme` and reduces host-side.
template <class T, class Mapper>
MapReduceResult run(MapReduceJob<T, Mapper>& job, schemes::Scheme scheme,
                    const gpusim::SystemConfig& config,
                    const schemes::SchemeConfig& sc = {}) {
  MapReduceResult result;
  result.metrics = schemes::run_scheme(scheme, config, job, sc);
  result.buckets = job.reduce();
  return result;
}

}  // namespace bigk::mr
