#include "apps/dna.hpp"

#include <algorithm>

namespace bigk::apps {

DnaApp::Dataset::Dataset(const Params& params) {
  records = params.data_bytes / (kElemsPerRecord * sizeof(std::uint64_t));
  fragments.resize(records * kElemsPerRecord);
  Rng rng(params.seed);
  // Fragments are drawn from a synthetic genome of overlapping reads so that
  // identical k-mers really do repeat (that is what the hash table counts).
  constexpr std::uint64_t kGenomeChunks = 1u << 12;
  for (std::uint64_t r = 0; r < records; ++r) {
    std::uint64_t* record = &fragments[r * kElemsPerRecord];
    Rng fragment(params.seed ^ (0x9E37 + rng.below(kGenomeChunks)));
    for (std::uint32_t i = 0; i < kReadsPerRecord; ++i) {
      record[i] = fragment.next();  // 32 packed bases
    }
    record[4] = rng.below(64);  // quality
    for (std::uint32_t i = 5; i < kElemsPerRecord; ++i) {
      record[i] = rng.next();
    }
  }
  kmer_counts = tables.add<std::uint32_t>(kBuckets);
}

void DnaApp::reset() {
  auto counts = tables().host_span(input_.data().kmer_counts);
  std::fill(counts.begin(), counts.end(), 0u);
}

std::vector<schemes::StreamDecl> DnaApp::stream_decls() {
  const std::vector<std::uint64_t>& fragments = input_.data().fragments;
  schemes::StreamDecl decl;
  decl.binding.host_data =
      reinterpret_cast<const std::byte*>(fragments.data());
  decl.binding.num_elements = fragments.size();
  decl.binding.elem_size = sizeof(std::uint64_t);
  decl.binding.mode = core::AccessMode::kReadOnly;
  decl.binding.elems_per_record = kElemsPerRecord;
  decl.binding.reads_per_record = kReadsPerRecord;
  decl.binding.writes_per_record = 0;
  return {decl};
}

std::uint64_t DnaApp::result_digest() const {
  std::uint64_t digest = kFnvBasis;
  for (std::uint32_t count :
       input_.tables().host_span(input_.data().kmer_counts)) {
    digest = fnv1a(digest, count);
  }
  return digest;
}

}  // namespace bigk::apps
