// Shared toy apps for the serving-layer tests: the schemes-test record shape
// (4 uint64 [a, b, pad, out]; out = a * 2 + b + lut[r]; atomic checksum
// table) with a tunable ALU weight, wrapped in apps::JobRunner so tests can
// build small deterministic suites without generating the paper-scale
// datasets. The lut stream is read-only, so it is the toy suite's cacheable
// stream when a server wires in a bigkcache chunk cache.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "schemes/runners.hpp"
#include "verify/verifier.hpp"

namespace bigk::serve::test {

struct ToyServeApp {
  static constexpr std::uint32_t kElemsPerRecord = 4;
  std::uint64_t records;
  double alu_ops;
  std::vector<std::uint64_t> data;
  std::vector<std::uint64_t> lut;  // read-only per-record stream (cacheable)
  core::TableSet table_set;
  core::TableRef<std::uint64_t> checksum;

  ToyServeApp(std::uint64_t n, double alu) : records(n), alu_ops(alu) {
    data.resize(records * kElemsPerRecord);
    lut.resize(records);
    checksum = table_set.add<std::uint64_t>(1);
    reset();
  }

  void reset() {
    for (std::uint64_t r = 0; r < records; ++r) {
      data[r * 4] = r * 7 + 1;
      data[r * 4 + 1] = r ^ 0x55;
      data[r * 4 + 2] = 99;
      data[r * 4 + 3] = 0;
      lut[r] = r % 13;
    }
    table_set.host_span(checksum)[0] = 0;
  }

  std::uint64_t num_records() const { return records; }
  core::TableSet& tables() { return table_set; }
  bool interleaved_records() const { return true; }

  std::vector<schemes::StreamDecl> stream_decls() {
    schemes::StreamDecl decl;
    decl.binding.host_data = reinterpret_cast<const std::byte*>(data.data());
    decl.binding.host_out = reinterpret_cast<std::byte*>(data.data());
    decl.binding.num_elements = data.size();
    decl.binding.elem_size = 8;
    decl.binding.mode = core::AccessMode::kReadWrite;
    decl.binding.elems_per_record = kElemsPerRecord;
    decl.binding.reads_per_record = 2;
    decl.binding.writes_per_record = 1;
    schemes::StreamDecl lut_decl;
    lut_decl.binding.host_data = reinterpret_cast<const std::byte*>(lut.data());
    lut_decl.binding.num_elements = lut.size();
    lut_decl.binding.elem_size = 8;
    lut_decl.binding.mode = core::AccessMode::kReadOnly;
    lut_decl.binding.elems_per_record = 1;
    lut_decl.binding.reads_per_record = 1;
    lut_decl.binding.writes_per_record = 0;
    return {decl, lut_decl};
  }

  struct Kernel {
    core::StreamRef<std::uint64_t> stream{0};
    core::StreamRef<std::uint64_t> lut{1};
    core::TableRef<std::uint64_t> checksum;
    double alu_ops = 8;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const auto a = ctx.read(stream, r * 4);
        const auto b = ctx.read(stream, r * 4 + 1);
        const auto c = ctx.read(lut, r);
        ctx.alu(alu_ops);
        ctx.write(stream, r * 4 + 3, a * 2 + b + c);
        ctx.atomic_add_table(checksum, 0, a + b);
      }
    }
  };

  Kernel kernel() const { return Kernel{{0}, {1}, checksum, alu_ops}; }

  void expect_results() const {
    for (std::uint64_t r = 0; r < records; ++r) {
      const std::uint64_t a = r * 7 + 1;
      const std::uint64_t b = r ^ 0x55;
      if (data[r * 4 + 3] != a * 2 + b + r % 13) {
        throw std::logic_error("toy app result mismatch at record " +
                               std::to_string(r));
      }
    }
  }
};

/// The registry's per-app runner over the toy app, plus the toy's own
/// result check after every run, on a device or the host cores, that
/// completes the job.
class ToyRunner final : public apps::AppJobRunner<ToyServeApp> {
 public:
  ToyRunner(std::string name, std::uint64_t records, double alu_ops)
      : AppJobRunner(std::move(name), records, alu_ops) {}

  sim::Task<> run(cusim::Runtime& runtime,
                  const apps::JobRunConfig& cfg) override {
    co_await AppJobRunner::run(runtime, cfg);
    // The full result only exists once the final window has run.
    if (cfg.rec_end == 0 || cfg.rec_end >= num_records()) {
      app().expect_results();
    }
  }

  sim::Task<> run_cpu(hostsim::HostCpu& cpu,
                      const apps::CpuJobConfig& cfg) override {
    co_await AppJobRunner::run_cpu(cpu, cfg);
    if (cfg.rec_end == 0 || cfg.rec_end >= num_records()) {
      app().expect_results();
    }
  }
};

/// A suite of `num_apps` toy apps named "toy0".."toyN-1" (only the fields
/// the serving layer uses are populated).
inline std::vector<apps::BenchApp> make_toy_suite(std::uint32_t num_apps,
                                                  std::uint64_t records,
                                                  double alu_ops = 8.0) {
  std::vector<apps::BenchApp> suite;
  for (std::uint32_t i = 0; i < num_apps; ++i) {
    apps::BenchApp entry;
    entry.name = "toy" + std::to_string(i);
    entry.info.name = entry.name;
    entry.make_runner = [name = entry.name, records, alu_ops] {
      return std::unique_ptr<apps::JobRunner>(
          std::make_unique<ToyRunner>(name, records, alu_ops));
    };
    entry.verify = [name = entry.name, records, alu_ops] {
      ToyServeApp app(records, alu_ops);
      verify::KernelReport report = verify::verify_app(app);
      report.app = name;
      return report;
    };
    suite.push_back(std::move(entry));
  }
  return suite;
}

/// bigkdur: a toy suite whose runners are shared with the caller —
/// make_runner hands out apps::SharedJobRunner views over `runners` (one
/// persistent ToyRunner per app, so use one job per app name), letting two
/// run_server incarnations over the same journal see the same output
/// storage.
inline std::vector<apps::BenchApp> make_durable_toy_suite(
    const std::vector<std::shared_ptr<ToyRunner>>& runners) {
  std::vector<apps::BenchApp> suite;
  for (const std::shared_ptr<ToyRunner>& runner : runners) {
    apps::BenchApp entry;
    entry.name = runner->app_name();
    entry.info.name = entry.name;
    entry.make_runner = [runner] {
      return std::unique_ptr<apps::JobRunner>(
          std::make_unique<apps::SharedJobRunner>(runner));
    };
    entry.verify = [name = entry.name, records = runner->num_records()] {
      ToyServeApp app(records, 8.0);
      verify::KernelReport report = verify::verify_app(app);
      report.app = name;
      return report;
    };
    suite.push_back(std::move(entry));
  }
  return suite;
}

/// Small per-device system (2 MB GPU arenas, default host CPU).
inline gpusim::SystemConfig toy_system() {
  gpusim::SystemConfig config;
  config.gpu.global_memory_bytes = 2 << 20;
  return config;
}

/// Engine options sized for the toy workload (few assembly threads so pools
/// of engines don't oversubscribe the 4 host cores).
inline core::Options toy_engine_options() {
  core::Options options;
  options.num_blocks = 2;
  options.compute_threads_per_block = 64;
  return options;
}

}  // namespace bigk::serve::test
