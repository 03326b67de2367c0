// Word Count: counts occurrences of each word in a large mapped document
// (100% of the mapped data is read, Table I).
//
// The corpus is line-structured: fixed 64-byte lines of space-separated
// words terminated by '\n' (words never span lines), standing in for the
// paper's free-form text. The partition unit (a "record") is one line, so
// every scheme assigns whole lines to threads and word semantics are
// partition-independent; within a line the kernel still reads character by
// character — one 1-byte access per address, the granularity that makes
// pattern recognition so valuable for this app (Table II: 66%).
//
// Counts go to a centralized hash table via atomics, the paper's noted
// source of synchronization overhead that keeps Word Count compute-bound.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/common.hpp"
#include "core/stream.hpp"
#include "schemes/runners.hpp"

namespace bigk::apps {

class WordCountApp {
 public:
  static constexpr std::uint32_t kLineBytes = 64;
  static constexpr std::uint32_t kBuckets = 1u << 16;

  struct Params {
    std::uint64_t data_bytes = 4ull << 20;
    std::uint64_t seed = 2;
  };

  /// The generated corpus and the zeroed count table.
  struct Dataset {
    explicit Dataset(const Params& params);
    std::uint64_t lines = 0;
    std::vector<std::uint8_t> text;
    core::TableSet tables;
    core::TableRef<std::uint32_t> counts;
  };

  /// Generates a dataset that this app alone owns.
  explicit WordCountApp(const Params& params) : input_(Dataset(params)) {}
  /// Runs over `data`, which other apps may share and none writes.
  explicit WordCountApp(std::shared_ptr<const Dataset> data)
      : input_(std::move(data)) {}

  void reset();
  std::uint64_t num_records() const { return input_.data().lines; }
  core::TableSet& tables() { return input_.tables(); }
  const core::TableSet& tables() const { return input_.tables(); }
  bool interleaved_records() const { return false; }  // text: contiguous
  std::vector<schemes::StreamDecl> stream_decls();

  struct Kernel {
    /// Warp-divergence factor: word-boundary branches diverge heavily.
    static constexpr double kDivergence = 3.0;

    core::StreamRef<std::uint8_t> text{0};
    core::TableRef<std::uint32_t> counts;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      for (std::uint64_t line = rec_begin; line < rec_end; line += stride) {
        const std::uint64_t base = line * kLineBytes;
        core::Val<Ctx, std::uint64_t> hash = kFnvBasis;
        bool in_word = false;
        for (std::uint32_t i = 0; i < kLineBytes; ++i) {
          const auto c = ctx.read(text, base + i);
          charge_alu(ctx, 14, kDivergence);  // classify + hash + word rules
          if (c >= 'a' && c <= 'z') {
            hash = (hash ^ c) * 0x100000001B3ull;
            in_word = true;
          } else {
            if (in_word) {
              ctx.atomic_add_table(counts,
                                   (hash >> 32) % kBuckets,
                                   std::uint32_t{1});
              hash = kFnvBasis;
              in_word = false;
            }
          }
        }
      }
    }
  };

  Kernel kernel() const { return Kernel{{0}, input_.data().counts}; }

  static AppInfo paper_info() {
    return AppInfo{"Word Count", 4.5, "Variable-length", 100.0, 0.0};
  }
  std::uint64_t result_digest() const;
  std::uint64_t total_words() const;

 private:
  AppInput<Dataset> input_;
};

}  // namespace bigk::apps
