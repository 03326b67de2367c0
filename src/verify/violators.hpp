// Seeded contract violators for bigkstatic — the static-analysis counterpart
// of bigkcheck's fault toggles: tiny kernels that each break exactly one
// kernel contract, proving every check actually fires and names the
// offending call-site. bigklint --violators and the verify test suite run
// each one and require detection.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/stream.hpp"
#include "verify/contracts.hpp"
#include "verify/verifier.hpp"

namespace bigk::verify {

/// Plain-value overload for the violator kernels' unqualified value_cast
/// calls; the Tainted overload (taint.hpp) joins in via ordinary lookup.
using core::value_cast;

/// Local mirror of schemes::StreamDecl so the verify layer does not depend
/// on the schemes headers (which pull in the whole simulator).
namespace schemes_compat {
struct StreamDecl {
  core::StreamBinding binding;
  std::uint32_t overfetch_elems = 0;
};
}  // namespace schemes_compat

/// The output column a violator kernel's stream declares: its kOutColumn,
/// or the whole-record layout.
template <class Kernel>
constexpr std::uint32_t out_column_of() {
  if constexpr (requires { Kernel::kOutColumn; }) {
    return Kernel::kOutColumn;
  } else {
    return core::StreamBinding::kWholeRecord;
  }
}

/// Minimal duck-typed app (schemes/runners.hpp interface) over one uint64
/// stream plus one uint32 table, shared by all violator kernels.
template <class Kernel>
class ViolatorApp {
 public:
  static constexpr std::uint32_t kElemsPerRecord = 4;

  explicit ViolatorApp(std::uint64_t records) : records_(records) {
    data_.resize(records_ * kElemsPerRecord + kElemsPerRecord);
    column_.resize(data_.size() / kElemsPerRecord);
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t& value : data_) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      value = state >> 16;
    }
    table_ = tables_.add<std::uint32_t>(64);
    auto span = tables_.host_span(table_);
    for (std::size_t i = 0; i < span.size(); ++i) {
      span[i] = static_cast<std::uint32_t>((i * 7 + 3) % span.size());
    }
  }

  void reset() {}
  std::uint64_t num_records() const { return records_; }
  core::TableSet& tables() { return tables_; }
  bool interleaved_records() const { return false; }

  std::vector<schemes_compat::StreamDecl> stream_decls() {
    core::StreamBinding binding;
    binding.host_data = reinterpret_cast<const std::byte*>(data_.data());
    binding.out_column = out_column_of<Kernel>();
    binding.host_out = reinterpret_cast<std::byte*>(
        binding.out_column == core::StreamBinding::kWholeRecord
            ? data_.data()
            : column_.data());
    binding.num_elements = data_.size();
    binding.elem_size = sizeof(std::uint64_t);
    binding.mode = core::AccessMode::kReadWrite;
    binding.elems_per_record = kElemsPerRecord;
    binding.reads_per_record = kElemsPerRecord;
    binding.writes_per_record = 1;
    return {schemes_compat::StreamDecl{binding, 0}};
  }

  Kernel kernel() const { return Kernel{{0}, table_}; }

 private:
  std::uint64_t records_;
  std::vector<std::uint64_t> data_;
  std::vector<std::uint64_t> column_;  // host_out of a column-declaring kernel
  core::TableSet tables_;
  core::TableRef<std::uint32_t> table_;
};

/// Streaming-restriction violator: a gather whose index is computed from a
/// stream value (the classic value -> address flow).
struct GatherViolatorKernel {
  core::StreamRef<std::uint64_t> data{0};
  core::TableRef<std::uint32_t> table;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t base = r * 4;
      const auto key = ctx.read(data, base);
      // VIOLATION: stream value flows into a stream index.
      const auto gathered =
          ctx.read(data, (value_cast<std::uint64_t>(key) % 64) * 4 + 1);
      ctx.atomic_add_table(table, 0,
                           value_cast<std::uint32_t>(gathered));
    }
  }
};

/// Addr-gen purity violator: a stream index computed from a load_table()
/// result — stripped to a dummy in the addr-gen instantiation, so the two
/// stages would fetch different addresses.
struct StrippedAddrViolatorKernel {
  core::StreamRef<std::uint64_t> data{0};
  core::TableRef<std::uint32_t> table;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      // VIOLATION: load_table survives only in compute; its result may not
      // feed an address.
      const auto offset = ctx.load_table(table, r % 64);
      const auto value =
          ctx.read(data, value_cast<std::uint64_t>(offset));
      ctx.alu(2.0);
      (void)value;
    }
  }
};

/// Addr-gen purity violator: mutates the table it also uses as an address
/// table, so stripping the store changes what load_addr_table reads.
struct ImpureAddrGenViolatorKernel {
  core::StreamRef<std::uint64_t> data{0};
  core::TableRef<std::uint32_t> table;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      // VIOLATION: store on the address table (stripped in addr-gen) ...
      ctx.store_table(table, r % 64,
                      static_cast<std::uint32_t>((r * 3 + 1) % 64));
      // ... read back through load_addr_table (kept in addr-gen).
      const auto offset = ctx.load_addr_table(table, r % 64);
      const auto value =
          ctx.read(data, value_cast<std::uint64_t>(offset));
      ctx.alu(2.0);
      (void)value;
    }
  }
};

/// Phase-agreement violator: a stream value decides how many extra stream
/// reads a record performs. Dummy zeros in addr-gen take the *minimal* path,
/// so the compute sequence is longer than the addr-gen sequence.
struct CountViolatorKernel {
  core::StreamRef<std::uint64_t> data{0};
  core::TableRef<std::uint32_t> table;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t base = r * 4;
      const auto head = ctx.read(data, base);
      // VIOLATION: stream-value-dependent access count.
      const auto extra = value_cast<std::uint64_t>(head) % 3;
      for (std::uint64_t i = 0; i < 3; ++i) {
        if (i < extra) {
          const auto value = ctx.read(data, base + 1 + i);
          ctx.atomic_add_table(table, 0,
                               value_cast<std::uint32_t>(value));
        }
      }
    }
  }
};

/// Alias violator: each record writes the first element of the *next*
/// record, so the last record of every thread scribbles into the next
/// thread's span.
struct AliasViolatorKernel {
  core::StreamRef<std::uint64_t> data{0};
  core::TableRef<std::uint32_t> table;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t base = r * 4;
      const auto value = ctx.read(data, base);
      // VIOLATION: writes the next record's first element.
      ctx.write(data, base + 4, value + 1);
    }
  }
};

/// Output-column violator: the stream declares element 3 of each record as
/// its output column, and the kernel writes element 2, whose bytes the
/// stream's other readers share.
struct ColumnViolatorKernel {
  static constexpr std::uint32_t kOutColumn = 3;
  core::StreamRef<std::uint64_t> data{0};
  core::TableRef<std::uint32_t> table;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t base = r * 4;
      const auto value = ctx.read(data, base);
      // VIOLATION: writes element 2; the declared column is element 3.
      ctx.write(data, base + 2, value + 1);
    }
  }
};

/// Pattern-consistency violator: the read shape depends on the record count
/// (the per-thread span), so the stride cycle derived at N disagrees with
/// the one derived at N/2 — a pattern the online detector would lock onto
/// for one chunk size and miss for another.
struct CycleDriftViolatorKernel {
  core::StreamRef<std::uint64_t> data{0};
  core::TableRef<std::uint32_t> table;

  template <class Ctx>
  void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                  std::uint64_t stride) const {
    // VIOLATION: the second read's offset depends on the record count.
    const std::uint64_t second = (rec_end - rec_begin > 8) ? 1 : 2;
    for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
      const std::uint64_t base = r * 4;
      const auto a = ctx.read(data, base);
      const auto b = ctx.read(data, base + second);
      ctx.atomic_add_table(table, 0, value_cast<std::uint32_t>(a + b));
    }
  }
};

/// One registered violator case: its name, the check it must trip, and a
/// closure running the verifier over it.
struct ViolatorCase {
  std::string name;
  Check expected = Check::kStreamingRestriction;
  std::function<KernelReport()> verify;
};

inline std::vector<ViolatorCase> violator_cases(
    const VerifyOptions& opts = {}) {
  const auto make = [&opts](std::string name, Check expected, auto kernel_tag) {
    using Kernel = decltype(kernel_tag);
    ViolatorCase violator;
    violator.name = name;
    violator.expected = expected;
    violator.verify = [name, opts]() {
      ViolatorApp<Kernel> app(/*records=*/64);
      KernelReport report = verify_app(app, opts);
      report.app = name;
      return report;
    };
    return violator;
  };
  return {
      make("value_dependent_gather", Check::kStreamingRestriction,
           GatherViolatorKernel{}),
      make("stripped_value_to_address", Check::kAddrGenPurity,
           StrippedAddrViolatorKernel{}),
      make("impure_addr_gen", Check::kAddrGenPurity,
           ImpureAddrGenViolatorKernel{}),
      make("phase_divergent_compute", Check::kPhaseAgreement,
           CountViolatorKernel{}),
      make("alias_overlap_writer", Check::kAliasOverlap,
           AliasViolatorKernel{}),
      make("write_outside_output_column", Check::kAliasOverlap,
           ColumnViolatorKernel{}),
      make("count_dependent_cycle", Check::kPatternConsistency,
           CycleDriftViolatorKernel{}),
  };
}

}  // namespace bigk::verify
