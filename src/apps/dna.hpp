// DNA Assembly (Meraculous-style k-mer counting) [Chapman et al. 2011].
//
// Mapped data: fixed 88-byte records of 11 uint64 elements
// [kmer x4, quality, payload x6]; the kernel hashes the 32-base fragment
// prefix (4 elements = 32 B = 36% of the record, Table I) and counts
// occurrences in a device-resident hash table, which is later used to
// extend fragments and drop noisy ones. Records are large, so the original
// layout is inherently non-coalescable — the paper's showcase for the
// layout optimization.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/common.hpp"
#include "core/stream.hpp"
#include "schemes/runners.hpp"

namespace bigk::apps {

class DnaApp {
 public:
  static constexpr std::uint32_t kElemsPerRecord = 11;
  static constexpr std::uint32_t kReadsPerRecord = 4;
  static constexpr std::uint32_t kBuckets = 1u << 16;

  struct Params {
    std::uint64_t data_bytes = 4ull << 20;
    std::uint64_t seed = 5;
  };

  /// The generated fragment records and the zeroed k-mer count table.
  struct Dataset {
    explicit Dataset(const Params& params);
    std::uint64_t records = 0;
    std::vector<std::uint64_t> fragments;
    core::TableSet tables;
    core::TableRef<std::uint32_t> kmer_counts;
  };

  /// Generates a dataset that this app alone owns.
  explicit DnaApp(const Params& params) : input_(Dataset(params)) {}
  /// Runs over `data`, which other apps may share and none writes.
  explicit DnaApp(std::shared_ptr<const Dataset> data)
      : input_(std::move(data)) {}

  void reset();
  std::uint64_t num_records() const { return input_.data().records; }
  core::TableSet& tables() { return input_.tables(); }
  const core::TableSet& tables() const { return input_.tables(); }
  bool interleaved_records() const { return true; }
  std::vector<schemes::StreamDecl> stream_decls();

  struct Kernel {
    core::StreamRef<std::uint64_t> fragments{0};
    core::TableRef<std::uint32_t> kmer_counts;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const std::uint64_t base = r * kElemsPerRecord;
        core::Val<Ctx, std::uint64_t> hash = kFnvBasis;
        for (std::uint32_t i = 0; i < kReadsPerRecord; ++i) {
          const auto packed_bases = ctx.read(fragments, base + i);
          hash = fnv1a(hash, packed_bases);
        }
        ctx.alu(4 * 16 + 10);  // base unpacking + canonicalization
        ctx.atomic_add_table(kmer_counts, hash % kBuckets, std::uint32_t{1});
      }
    }
  };

  Kernel kernel() const { return Kernel{{0}, input_.data().kmer_counts}; }

  static AppInfo paper_info() {
    return AppInfo{"DNA Assembly", 4.5, "Fixed-length", 36.0, 0.0};
  }
  std::uint64_t result_digest() const;

 private:
  AppInput<Dataset> input_;
};

}  // namespace bigk::apps
