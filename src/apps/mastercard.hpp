// MasterCard Affinity: find all merchants frequently visited by customers of
// a target merchant X.
//
// Mapped data: a transaction log. The paper's application makes two passes;
// pass 1 (extracting the customer list of merchant X) is provided here as a
// precomputed device-resident customer table, and the benchmark runs pass 2:
// counting, over all transactions, the merchants visited by those customers.
//
// Two variants, as in the evaluation:
//
//  * MastercardApp — variable-length '|'-delimited text records terminated
//    by '\n' (Table I: 100% read). Threads own byte ranges; a record belongs
//    to the thread whose range contains the newline *preceding* it, and a
//    bounded look-ahead window past the range end (kMaxRecordBytes) lets the
//    owning thread finish its tail record. Every byte is scanned — the
//    transformation cannot reduce the transfer volume, the paper's stated
//    reason this app gains little beyond overlap + coalescing.
//
//  * MastercardIndexedApp — an extra index of record offsets lets the kernel
//    touch only the card and merchant fields (~25% read, Table I). The
//    index-driven addresses are irregular, so pattern recognition does not
//    apply (Table II: NA).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/common.hpp"
#include "core/stream.hpp"
#include "schemes/runners.hpp"

namespace bigk::apps {

class MastercardApp {
 public:
  static constexpr std::uint32_t kMaxRecordBytes = 64;
  static constexpr std::uint32_t kCustomerBuckets = 1u << 14;
  static constexpr std::uint32_t kMerchantBuckets = 1u << 14;
  static constexpr std::uint64_t kTargetMerchant = 4242;

  struct Params {
    std::uint64_t data_bytes = 6ull << 20;
    std::uint64_t seed = 6;
  };

  /// The generated transaction log, the customer table of merchant X (pass
  /// 1, precomputed) and the zeroed merchant counts.
  struct Dataset {
    explicit Dataset(const Params& params);
    std::uint64_t transactions = 0;
    std::vector<std::uint8_t> log;
    core::TableSet tables;
    core::TableRef<std::uint32_t> customers;
    core::TableRef<std::uint32_t> counts;
  };

  /// Generates a dataset that this app alone owns.
  explicit MastercardApp(const Params& params) : input_(Dataset(params)) {}
  /// Runs over `data`, which other apps may share and none writes.
  explicit MastercardApp(std::shared_ptr<const Dataset> data)
      : input_(std::move(data)) {}

  void reset();
  std::uint64_t num_records() const {  // unit: one byte
    return input_.data().log.size();
  }
  core::TableSet& tables() { return input_.tables(); }
  const core::TableSet& tables() const { return input_.tables(); }
  bool interleaved_records() const { return false; }  // text: contiguous
  std::vector<schemes::StreamDecl> stream_decls();

  struct Kernel {
    /// Field/record parsing branches per character.
    static constexpr double kDivergence = 3.0;

    core::StreamRef<std::uint8_t> log{0};
    core::TableRef<std::uint32_t> customers;
    core::TableRef<std::uint32_t> merchant_counts;
    std::uint64_t num_bytes;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t begin, std::uint64_t end,
                    std::uint64_t stride) const {
      core::check_contract(stride == 1,
                           "byte-scanning kernel requires contiguous ranges",
                           stride, 1);
      const std::uint64_t window_end =
          std::min(num_bytes, end + kMaxRecordBytes);
      bool capturing = begin == 0;  // virtual '\n' before byte 0
      core::Val<Ctx, std::uint64_t> card = 0;
      core::Val<Ctx, std::uint64_t> merchant = 0;
      std::uint32_t field = 0;
      // Reads are unconditional over the whole window so the access sequence
      // is independent of stream values (the BigKernel restriction); only
      // the *processing* below is conditional.
      for (std::uint64_t i = begin; i < window_end; ++i) {
        const auto c = ctx.read(log, i);
        charge_alu(ctx, 4, kDivergence);
        if (c == '\n') {
          if (capturing) {
            charge_alu(ctx, 8, kDivergence);
            if (ctx.load_table(customers, card % kCustomerBuckets) != 0u) {
              ctx.atomic_add_table(merchant_counts,
                                   merchant % kMerchantBuckets,
                                   std::uint32_t{1});
            }
          }
          capturing = i < end;  // the next record's preceding '\n' is i
          card = 0;
          merchant = 0;
          field = 0;
        } else if (capturing) {
          if (c == '|') {
            ++field;
          } else if (field == 0) {
            card = card * 10 + (c - '0');
          } else if (field == 1) {
            merchant = merchant * 10 + (c - '0');
          }  // further fields (amount, payload) are scanned but unused
        }
      }
    }
  };

  Kernel kernel() const {
    const Dataset& data = input_.data();
    return Kernel{{0}, data.customers, data.counts, num_records()};
  }

  static AppInfo paper_info() {
    return AppInfo{"MasterCard Affinity", 6.4, "Variable-length", 100.0, 0.0};
  }
  std::uint64_t result_digest() const;
  std::uint64_t transactions() const { return input_.data().transactions; }

 private:
  AppInput<Dataset> input_;
};

class MastercardIndexedApp {
 public:
  static constexpr std::uint32_t kGroupRecords = 8;   // records per group
  static constexpr std::uint32_t kGroupElems = 64;    // 8-byte units
  static constexpr std::uint32_t kCustomerBuckets = 1u << 14;
  static constexpr std::uint32_t kMerchantBuckets = 1u << 14;

  struct Params {
    std::uint64_t data_bytes = 6ull << 20;
    std::uint64_t seed = 7;
  };

  /// The generated log, its record index, the customer table of merchant X
  /// and the zeroed merchant counts.
  struct Dataset {
    explicit Dataset(const Params& params);
    std::uint64_t groups = 0;
    std::vector<std::uint64_t> log;
    core::TableSet tables;
    core::TableRef<std::uint32_t> index;
    core::TableRef<std::uint32_t> customers;
    core::TableRef<std::uint32_t> counts;
  };

  /// Generates a dataset that this app alone owns.
  explicit MastercardIndexedApp(const Params& params)
      : input_(Dataset(params)) {}
  /// Runs over `data`, which other apps may share and none writes.
  explicit MastercardIndexedApp(std::shared_ptr<const Dataset> data)
      : input_(std::move(data)) {}

  void reset();
  std::uint64_t num_records() const {  // unit: one group
    return input_.data().groups;
  }
  core::TableSet& tables() { return input_.tables(); }
  const core::TableSet& tables() const { return input_.tables(); }
  bool interleaved_records() const { return true; }
  std::vector<schemes::StreamDecl> stream_decls();

  struct Kernel {
    static constexpr double kDivergence = 1.5;

    core::StreamRef<std::uint64_t> log{0};
    core::TableRef<std::uint32_t> index;  // record -> element offset
    core::TableRef<std::uint32_t> customers;
    core::TableRef<std::uint32_t> merchant_counts;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t group_begin,
                    std::uint64_t group_end, std::uint64_t stride) const {
      for (std::uint64_t g = group_begin; g < group_end; g += stride) {
        for (std::uint32_t t = 0; t < kGroupRecords; ++t) {
          const std::uint64_t record = g * kGroupRecords + t;
          // The index read *feeds address computation*: the transformation
          // keeps it in the address-generation stage.
          const auto offset = ctx.load_addr_table(index, record);
          const auto card = ctx.read(log, offset);
          const auto merchant = ctx.read(log, offset + 1);
          charge_alu(ctx, 10, kDivergence);
          if (ctx.load_table(customers, card % kCustomerBuckets) != 0u) {
            ctx.atomic_add_table(merchant_counts,
                                 merchant % kMerchantBuckets,
                                 std::uint32_t{1});
          }
        }
      }
    }
  };

  Kernel kernel() const {
    const Dataset& data = input_.data();
    return Kernel{{0}, data.index, data.customers, data.counts};
  }

  static AppInfo paper_info() {
    return AppInfo{"MasterCard Affinity (indexed)", 6.4,
                   "Variable-length (indexed)", 25.0, 0.0};
  }
  std::uint64_t result_digest() const;

 private:
  AppInput<Dataset> input_;
};

}  // namespace bigk::apps
