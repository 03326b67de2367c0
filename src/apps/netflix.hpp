// Netflix: predicts user movie preferences by correlating pairs of user
// ratings [Chen & Schlosser 2008].
//
// Mapped data: fixed 80-byte records of 10 uint64 elements
// [pair_key, rating_a, rating_b, movie, ts, payload x5]; the kernel reads
// the first 3 (24 B = 30% of the record, Table I) and accumulates the
// rating correlation of each user pair into a device-resident table.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/common.hpp"
#include "core/stream.hpp"
#include "schemes/runners.hpp"

namespace bigk::apps {

class NetflixApp {
 public:
  static constexpr std::uint32_t kElemsPerRecord = 10;
  static constexpr std::uint32_t kReadsPerRecord = 3;
  static constexpr std::uint32_t kPairBuckets = 1u << 14;

  struct Params {
    std::uint64_t data_bytes = 6ull << 20;
    std::uint64_t seed = 3;
  };

  /// The generated rating records and the zeroed correlation table.
  struct Dataset {
    explicit Dataset(const Params& params);
    std::uint64_t records = 0;
    std::vector<std::uint64_t> ratings;
    core::TableSet tables;
    core::TableRef<std::uint64_t> correlation;
  };

  /// Generates a dataset that this app alone owns.
  explicit NetflixApp(const Params& params) : input_(Dataset(params)) {}
  /// Runs over `data`, which other apps may share and none writes.
  explicit NetflixApp(std::shared_ptr<const Dataset> data)
      : input_(std::move(data)) {}

  void reset();
  std::uint64_t num_records() const { return input_.data().records; }
  core::TableSet& tables() { return input_.tables(); }
  const core::TableSet& tables() const { return input_.tables(); }
  bool interleaved_records() const { return true; }
  std::vector<schemes::StreamDecl> stream_decls();

  struct Kernel {
    core::StreamRef<std::uint64_t> ratings{0};
    core::TableRef<std::uint64_t> correlation;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const std::uint64_t base = r * kElemsPerRecord;
        const auto pair_key = ctx.read(ratings, base);
        const auto rating_a = ctx.read(ratings, base + 1);
        const auto rating_b = ctx.read(ratings, base + 2);
        // Pearson-style contribution (means handled in a later CPU pass):
        // accumulate a*b and the marginals packed into one counter.
        const auto contribution =
            rating_a * rating_b + (rating_a << 16) + (rating_b << 32);
        ctx.alu(18);
        ctx.atomic_add_table(correlation, pair_key % kPairBuckets,
                             contribution);
      }
    }
  };

  Kernel kernel() const { return Kernel{{0}, input_.data().correlation}; }

  static AppInfo paper_info() {
    return AppInfo{"Netflix", 6.0, "Fixed-length", 30.0, 0.0};
  }
  std::uint64_t result_digest() const;

 private:
  AppInput<Dataset> input_;
};

}  // namespace bigk::apps
