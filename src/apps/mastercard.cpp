#include "apps/mastercard.hpp"

#include <algorithm>
#include <string>

namespace bigk::apps {

namespace {

void append_number(std::vector<std::uint8_t>* out, std::uint64_t value) {
  const std::string digits = std::to_string(value);
  for (char c : digits) out->push_back(static_cast<std::uint8_t>(c));
}

}  // namespace

MastercardApp::Dataset::Dataset(const Params& params) {
  log.reserve(params.data_bytes + kMaxRecordBytes);
  customers = tables.add<std::uint32_t>(kCustomerBuckets);
  counts = tables.add<std::uint32_t>(kMerchantBuckets);
  auto customer_table = tables.host_span(customers);

  Rng rng(params.seed);
  while (log.size() + kMaxRecordBytes < params.data_bytes) {
    const std::uint64_t card = 1'000'000'000ull + rng.below(800'000'000ull);
    // A heavy-tailed merchant distribution; the target merchant shows up in
    // ~2% of transactions.
    const std::uint64_t merchant =
        rng.below(50) == 0 ? kTargetMerchant : 1000 + rng.below(8000);
    const std::uint64_t amount = 1 + rng.below(99'999);
    append_number(&log, card);
    log.push_back('|');
    append_number(&log, merchant);
    log.push_back('|');
    append_number(&log, amount);
    // Optional free-text memo field, variable length.
    const std::uint64_t memo = rng.below(20);
    if (memo > 12) {
      log.push_back('|');
      for (std::uint64_t i = 0; i < memo; ++i) {
        log.push_back(static_cast<std::uint8_t>('0' + rng.below(10)));
      }
    }
    log.push_back('\n');
    ++transactions;
    // Pass 1 of the application, precomputed: remember customers of X.
    if (merchant == kTargetMerchant) {
      customer_table[card % kCustomerBuckets] = 1;
    }
  }
}

void MastercardApp::reset() {
  auto counts = tables().host_span(input_.data().counts);
  std::fill(counts.begin(), counts.end(), 0u);
}

std::vector<schemes::StreamDecl> MastercardApp::stream_decls() {
  const std::vector<std::uint8_t>& log = input_.data().log;
  schemes::StreamDecl decl;
  decl.binding.host_data = reinterpret_cast<const std::byte*>(log.data());
  decl.binding.num_elements = log.size();
  decl.binding.elem_size = 1;
  decl.binding.mode = core::AccessMode::kReadOnly;
  decl.binding.elems_per_record = 1;  // partition unit: one byte
  decl.binding.reads_per_record = 1;
  decl.binding.writes_per_record = 0;
  decl.overfetch_elems = kMaxRecordBytes;
  return {decl};
}

std::uint64_t MastercardApp::result_digest() const {
  std::uint64_t digest = kFnvBasis;
  for (std::uint32_t count :
       input_.tables().host_span(input_.data().counts)) {
    digest = fnv1a(digest, count);
  }
  return digest;
}

MastercardIndexedApp::Dataset::Dataset(const Params& params) {
  groups = params.data_bytes / (kGroupElems * sizeof(std::uint64_t));
  log.resize(groups * kGroupElems);
  const std::uint64_t num_records = groups * kGroupRecords;

  index = tables.add<std::uint32_t>(num_records);
  customers = tables.add<std::uint32_t>(kCustomerBuckets);
  counts = tables.add<std::uint32_t>(kMerchantBuckets);
  auto index_table = tables.host_span(index);
  auto customer_table = tables.host_span(customers);

  Rng rng(params.seed);
  for (std::uint64_t g = 0; g < groups; ++g) {
    // Variable record lengths (4..12 8-byte units) packed to exactly
    // kGroupElems per group, so group boundaries are fixed while record
    // offsets within them are irregular.
    std::uint32_t lengths[kGroupRecords];
    std::uint32_t remaining = kGroupElems;
    for (std::uint32_t t = 0; t < kGroupRecords; ++t) {
      const std::uint32_t left = kGroupRecords - 1 - t;
      const std::uint32_t low =
          remaining > 12 * left ? remaining - 12 * left : 4;
      const std::uint32_t high = std::min(12u, remaining - 4 * left);
      lengths[t] = low + static_cast<std::uint32_t>(rng.below(high - low + 1));
      remaining -= lengths[t];
    }
    std::uint32_t offset = static_cast<std::uint32_t>(g * kGroupElems);
    for (std::uint32_t t = 0; t < kGroupRecords; ++t) {
      const std::uint64_t record = g * kGroupRecords + t;
      const std::uint64_t card = 1'000'000'000ull + rng.below(800'000'000ull);
      const std::uint64_t merchant =
          rng.below(50) == 0 ? MastercardApp::kTargetMerchant
                             : 1000 + rng.below(8000);
      index_table[record] = offset;
      log[offset] = card;
      log[offset + 1] = merchant;
      for (std::uint32_t i = 2; i < lengths[t]; ++i) {
        log[offset + i] = rng.next();  // amount + payload
      }
      if (merchant == MastercardApp::kTargetMerchant) {
        customer_table[card % kCustomerBuckets] = 1;
      }
      offset += lengths[t];
    }
  }
}

void MastercardIndexedApp::reset() {
  auto counts = tables().host_span(input_.data().counts);
  std::fill(counts.begin(), counts.end(), 0u);
}

std::vector<schemes::StreamDecl> MastercardIndexedApp::stream_decls() {
  const std::vector<std::uint64_t>& log = input_.data().log;
  schemes::StreamDecl decl;
  decl.binding.host_data = reinterpret_cast<const std::byte*>(log.data());
  decl.binding.num_elements = log.size();
  decl.binding.elem_size = sizeof(std::uint64_t);
  decl.binding.mode = core::AccessMode::kReadOnly;
  decl.binding.elems_per_record = kGroupElems;  // partition unit: one group
  decl.binding.reads_per_record = 2 * kGroupRecords;
  decl.binding.writes_per_record = 0;
  return {decl};
}

std::uint64_t MastercardIndexedApp::result_digest() const {
  std::uint64_t digest = kFnvBasis;
  for (std::uint32_t count :
       input_.tables().host_span(input_.data().counts)) {
    digest = fnv1a(digest, count);
  }
  return digest;
}

}  // namespace bigk::apps
