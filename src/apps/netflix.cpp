#include "apps/netflix.hpp"

#include <algorithm>

namespace bigk::apps {

NetflixApp::Dataset::Dataset(const Params& params) {
  records = params.data_bytes / (kElemsPerRecord * sizeof(std::uint64_t));
  ratings.resize(records * kElemsPerRecord);
  Rng rng(params.seed);
  for (std::uint64_t r = 0; r < records; ++r) {
    std::uint64_t* record = &ratings[r * kElemsPerRecord];
    record[0] = rng.below(1u << 20);      // user-pair key
    record[1] = 1 + rng.below(5);         // rating a
    record[2] = 1 + rng.below(5);         // rating b
    record[3] = rng.below(17'000);        // movie id
    record[4] = 1'100'000'000 + rng.below(100'000'000);  // timestamp
    for (std::uint32_t i = 5; i < kElemsPerRecord; ++i) {
      record[i] = rng.next();
    }
  }
  correlation = tables.add<std::uint64_t>(kPairBuckets);
}

void NetflixApp::reset() {
  auto table = tables().host_span(input_.data().correlation);
  std::fill(table.begin(), table.end(), 0ull);
}

std::vector<schemes::StreamDecl> NetflixApp::stream_decls() {
  const std::vector<std::uint64_t>& ratings = input_.data().ratings;
  schemes::StreamDecl decl;
  decl.binding.host_data = reinterpret_cast<const std::byte*>(ratings.data());
  decl.binding.num_elements = ratings.size();
  decl.binding.elem_size = sizeof(std::uint64_t);
  decl.binding.mode = core::AccessMode::kReadOnly;
  decl.binding.elems_per_record = kElemsPerRecord;
  decl.binding.reads_per_record = kReadsPerRecord;
  decl.binding.writes_per_record = 0;
  return {decl};
}

std::uint64_t NetflixApp::result_digest() const {
  std::uint64_t digest = kFnvBasis;
  for (std::uint64_t value :
       input_.tables().host_span(input_.data().correlation)) {
    digest = fnv1a(digest, value);
  }
  return digest;
}

}  // namespace bigk::apps
