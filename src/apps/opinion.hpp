// Opinion Finder: sentiment analysis of tweets about a subject
// [Wilson et al. 2005].
//
// Mapped data: fixed 256-byte records of 32 uint64 elements
// [timestamp, meta x8, token x23]; the kernel reads the timestamp and the
// 22 text tokens (23 elements = 184 B ~ 73% of the record, Table I). Each
// token is looked up in three device-resident dictionaries (positive,
// negative, adverb) and scored with fairly heavy lexical arithmetic — the
// paper's reason this app stays compute-dominant. The output is a single
// aggregated sentiment score.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/common.hpp"
#include "core/stream.hpp"
#include "schemes/runners.hpp"

namespace bigk::apps {

class OpinionApp {
 public:
  static constexpr std::uint32_t kElemsPerRecord = 32;
  static constexpr std::uint32_t kReadsPerRecord = 23;
  static constexpr std::uint32_t kTokens = 22;
  static constexpr std::uint32_t kDictBuckets = 1u << 12;

  struct Params {
    std::uint64_t data_bytes = 6ull << 20;
    std::uint64_t seed = 4;
  };

  /// The generated tweet records, the three dictionaries and the zeroed
  /// score.
  struct Dataset {
    explicit Dataset(const Params& params);
    std::uint64_t records = 0;
    std::vector<std::uint64_t> tweets;
    core::TableSet tables;
    core::TableRef<std::uint32_t> positive;
    core::TableRef<std::uint32_t> negative;
    core::TableRef<std::uint32_t> adverbs;
    core::TableRef<std::uint64_t> score;
  };

  /// Generates a dataset that this app alone owns.
  explicit OpinionApp(const Params& params) : input_(Dataset(params)) {}
  /// Runs over `data`, which other apps may share and none writes.
  explicit OpinionApp(std::shared_ptr<const Dataset> data)
      : input_(std::move(data)) {}

  void reset();
  std::uint64_t num_records() const { return input_.data().records; }
  core::TableSet& tables() { return input_.tables(); }
  const core::TableSet& tables() const { return input_.tables(); }
  bool interleaved_records() const { return true; }
  std::vector<schemes::StreamDecl> stream_decls();

  struct Kernel {
    /// Sentiment rules branch on token class: strong divergence.
    static constexpr double kDivergence = 3.0;

    core::StreamRef<std::uint64_t> tweets{0};
    core::TableRef<std::uint32_t> positive;
    core::TableRef<std::uint32_t> negative;
    core::TableRef<std::uint32_t> adverbs;
    core::TableRef<std::uint64_t> score;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const std::uint64_t base = r * kElemsPerRecord;
        const auto timestamp = ctx.read(tweets, base);
        core::Val<Ctx, std::int64_t> sentiment = 0;
        core::Val<Ctx, std::int64_t> emphasis = 1;
        for (std::uint32_t t = 0; t < kTokens; ++t) {
          const auto token = ctx.read(tweets, base + 9 + t);
          const auto h = token % kDictBuckets;
          const auto is_positive = ctx.load_table(positive, h);
          const auto is_negative = ctx.load_table(negative, h);
          const auto is_adverb = ctx.load_table(adverbs, h);
          // Lexical analysis: stemming, precedence rules, window scoring —
          // modelled as a heavy per-token arithmetic cost.
          charge_alu(ctx, 260, kDivergence);
          if (is_adverb != 0u) {
            emphasis = 2;
          } else {
            sentiment += emphasis * (value_cast<std::int64_t>(is_positive) -
                                     value_cast<std::int64_t>(is_negative));
            emphasis = 1;
          }
        }
        charge_alu(ctx, 12.0 + value_cast<double>(timestamp % 2),
                   kDivergence);  // aggregation
        ctx.atomic_add_table(score, 0,
                             value_cast<std::uint64_t>(sentiment));
      }
    }
  };

  Kernel kernel() const {
    const Dataset& data = input_.data();
    return Kernel{{0}, data.positive, data.negative, data.adverbs, data.score};
  }

  static AppInfo paper_info() {
    return AppInfo{"Opinion Finder", 6.2, "Fixed-length", 73.0, 0.0};
  }
  std::uint64_t result_digest() const;
  std::int64_t sentiment_score() const;

 private:
  AppInput<Dataset> input_;
};

}  // namespace bigk::apps
