#include "apps/opinion.hpp"

#include <algorithm>

namespace bigk::apps {

OpinionApp::Dataset::Dataset(const Params& params) {
  records = params.data_bytes / (kElemsPerRecord * sizeof(std::uint64_t));
  tweets.resize(records * kElemsPerRecord);
  Rng rng(params.seed);
  for (std::uint64_t r = 0; r < records; ++r) {
    std::uint64_t* record = &tweets[r * kElemsPerRecord];
    record[0] = 1'300'000'000 + rng.below(50'000'000);  // timestamp
    for (std::uint32_t i = 1; i < 9; ++i) record[i] = rng.next();  // metadata
    for (std::uint32_t t = 0; t < kTokens; ++t) {
      record[9 + t] = rng.below(1u << 16);  // token id
    }
    record[31] = rng.next();
  }

  positive = tables.add<std::uint32_t>(kDictBuckets);
  negative = tables.add<std::uint32_t>(kDictBuckets);
  adverbs = tables.add<std::uint32_t>(kDictBuckets);
  score = tables.add<std::uint64_t>(1);

  Rng dict_rng(params.seed ^ 0xD1C7);
  auto fill_dict = [&](core::TableRef<std::uint32_t> dict, double density) {
    for (std::uint32_t& slot : tables.host_span(dict)) {
      slot = dict_rng.unit() < density ? 1u : 0u;
    }
  };
  fill_dict(positive, 0.08);
  fill_dict(negative, 0.08);
  fill_dict(adverbs, 0.04);
}

void OpinionApp::reset() { tables().host_span(input_.data().score)[0] = 0; }

std::vector<schemes::StreamDecl> OpinionApp::stream_decls() {
  const std::vector<std::uint64_t>& tweets = input_.data().tweets;
  schemes::StreamDecl decl;
  decl.binding.host_data = reinterpret_cast<const std::byte*>(tweets.data());
  decl.binding.num_elements = tweets.size();
  decl.binding.elem_size = sizeof(std::uint64_t);
  decl.binding.mode = core::AccessMode::kReadOnly;
  decl.binding.elems_per_record = kElemsPerRecord;
  decl.binding.reads_per_record = kReadsPerRecord;
  decl.binding.writes_per_record = 0;
  return {decl};
}

std::uint64_t OpinionApp::result_digest() const {
  return fnv1a(kFnvBasis, input_.tables().host_span(input_.data().score)[0]);
}

}  // namespace bigk::apps
