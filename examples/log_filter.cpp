// Writing your own streaming application against the public API.
//
// Scenario from the paper's introduction: filter + aggregate a huge access
// log. Fixed 32-byte records [timestamp, status, bytes, user]; the kernel
// reads status and bytes (50% of each record), filters server errors, and
// aggregates per-status byte counts into a device table — then the same
// kernel source is validated against a plain CPU run.
//
//   $ ./examples/log_filter
#include <cstdio>
#include <span>
#include <vector>

#include "apps/common.hpp"
#include "schemes/runners.hpp"

namespace {

using namespace bigk;

class LogFilterApp {
 public:
  static constexpr std::uint32_t kElemsPerRecord = 4;
  static constexpr std::uint32_t kStatusBuckets = 600;

  explicit LogFilterApp(std::uint64_t records) : records_(records) {
    log_.resize(records * kElemsPerRecord);
    apps::Rng rng(2026);
    for (std::uint64_t r = 0; r < records; ++r) {
      std::uint64_t* rec = &log_[r * kElemsPerRecord];
      rec[0] = 1'700'000'000 + r;                          // timestamp
      rec[1] = rng.below(100) < 7 ? 500 + rng.below(5)     // server errors
                                  : 200 + rng.below(2);    // OK-ish
      rec[2] = 200 + rng.below(40'000);                    // bytes served
      rec[3] = rng.below(1u << 20);                        // user id
    }
    bytes_by_status_ = tables_.add<std::uint64_t>(kStatusBuckets);
    error_count_ = tables_.add<std::uint64_t>(1);
    reset();
  }

  // --- the duck-typed app interface every scheme runner understands ---
  void reset() {
    for (auto& v : tables_.host_span(bytes_by_status_)) v = 0;
    tables_.host_span(error_count_)[0] = 0;
  }
  std::uint64_t num_records() const { return records_; }
  core::TableSet& tables() { return tables_; }
  bool interleaved_records() const { return true; }

  std::vector<schemes::StreamDecl> stream_decls() {
    schemes::StreamDecl decl;
    decl.binding.host_data = reinterpret_cast<const std::byte*>(log_.data());
    decl.binding.num_elements = log_.size();
    decl.binding.elem_size = 8;
    decl.binding.mode = core::AccessMode::kReadOnly;
    decl.binding.elems_per_record = kElemsPerRecord;
    decl.binding.reads_per_record = 2;  // status + bytes: 50% of the record
    return {decl};
  }

  struct Kernel {
    core::StreamRef<std::uint64_t> log{0};
    core::TableRef<std::uint64_t> bytes_by_status;
    core::TableRef<std::uint64_t> error_count;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const std::uint64_t status = ctx.read(log, r * kElemsPerRecord + 1);
        const std::uint64_t bytes = ctx.read(log, r * kElemsPerRecord + 2);
        apps::charge_alu(ctx, 6, /*warp_divergence=*/1.5);
        ctx.atomic_add_table(bytes_by_status, status % kStatusBuckets, bytes);
        if (status >= 500) {
          ctx.atomic_add_table(error_count, 0, std::uint64_t{1});
        }
      }
    }
  };

  Kernel kernel() const { return Kernel{{0}, bytes_by_status_, error_count_}; }

  std::uint64_t errors() const { return tables_.host_span(error_count_)[0]; }
  std::uint64_t bytes_for(std::uint32_t status) const {
    return tables_.host_span(bytes_by_status_)[status];
  }

 private:
  std::uint64_t records_;
  std::vector<std::uint64_t> log_;
  core::TableSet tables_;
  core::TableRef<std::uint64_t> bytes_by_status_;
  core::TableRef<std::uint64_t> error_count_;
};

}  // namespace

int main() {
  const apps::ScaledSystem scaled{.scale = 0.005};
  const gpusim::SystemConfig config = scaled.config();
  LogFilterApp app((32u << 20) / 32);  // 32 MB log vs ~10 MB device memory

  schemes::SchemeConfig sc;
  sc.bigkernel.num_blocks = 8;

  const schemes::RunMetrics cpu = schemes::run_cpu_serial(config, app, sc);
  const std::uint64_t cpu_errors = app.errors();
  const std::uint64_t cpu_200 = app.bytes_for(200);

  const schemes::RunMetrics big = schemes::run_bigkernel(config, app, sc);

  std::printf("access-log aggregation over %llu records (32 MB)\n",
              static_cast<unsigned long long>(app.num_records()));
  std::printf("  server errors        : %llu\n",
              static_cast<unsigned long long>(app.errors()));
  std::printf("  bytes served (200)   : %llu\n",
              static_cast<unsigned long long>(app.bytes_for(200)));
  std::printf("  CPU serial           : %8.3f ms\n",
              sim::to_milliseconds(cpu.total_time));
  std::printf("  BigKernel            : %8.3f ms  (%.2fx, one launch, "
              "%.1f/%.1f MB moved)\n",
              sim::to_milliseconds(big.total_time),
              schemes::speedup(cpu, big),
              static_cast<double>(big.h2d_bytes) / 1e6, 32.0);
  const bool consistent =
      app.errors() == cpu_errors && app.bytes_for(200) == cpu_200;
  std::printf("  results identical    : %s\n", consistent ? "yes" : "NO");
  return consistent ? 0 : 1;
}
