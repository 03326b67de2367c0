#include "apps/kmeans.hpp"

#include <bit>

namespace bigk::apps {

KmeansApp::Dataset::Dataset(const Params& params) {
  records = params.data_bytes / (kElemsPerRecord * sizeof(double));
  particles.resize(records * kElemsPerRecord);
  Rng rng(params.seed);
  for (std::uint64_t r = 0; r < records; ++r) {
    double* record = &particles[r * kElemsPerRecord];
    for (std::uint32_t d = 0; d < kDims; ++d) {
      record[d] = rng.unit() * 100.0;
    }
    record[kClusterIdElem] = -1.0;  // cid: runs write theirs to a column
    record[5] = rng.unit();
    record[6] = rng.unit();
    record[7] = rng.unit();
  }

  centroids = tables.add<double>(kClusters * kDims);
  Rng centroid_rng(params.seed ^ 0xC1u);
  for (double& value : tables.host_span(centroids)) {
    value = centroid_rng.unit() * 100.0;
  }
}

KmeansApp::KmeansApp(const Params& params) : input_(Dataset(params)) {}

KmeansApp::KmeansApp(std::shared_ptr<const Dataset> data)
    : input_(std::move(data)) {}

// The centroids are read-only (the kernel only loads them), so a reset
// clears the cluster ids alone.
void KmeansApp::reset() { cluster_ids_.assign(num_records(), -1.0); }

std::vector<schemes::StreamDecl> KmeansApp::stream_decls() {
  const std::vector<double>& particles = input_.data().particles;
  schemes::StreamDecl decl;
  decl.binding.host_data =
      reinterpret_cast<const std::byte*>(particles.data());
  // Null before the first reset: there is no column to write yet.
  decl.binding.host_out =
      cluster_ids_.empty() ? nullptr
                           : reinterpret_cast<std::byte*>(cluster_ids_.data());
  decl.binding.num_elements = particles.size();
  decl.binding.elem_size = sizeof(double);
  decl.binding.mode = core::AccessMode::kReadWrite;
  decl.binding.elems_per_record = kElemsPerRecord;
  decl.binding.reads_per_record = kReadsPerRecord;
  decl.binding.writes_per_record = 1;
  decl.binding.out_column = kClusterIdElem;
  return {decl};
}

std::uint64_t KmeansApp::result_digest() const {
  std::uint64_t digest = kFnvBasis;
  for (std::uint64_t r = 0; r < num_records(); ++r) {
    const double cid = cluster_ids_.empty() ? -1.0 : cluster_ids_[r];
    digest = fnv1a(digest, std::bit_cast<std::uint64_t>(cid));
  }
  return digest;
}

}  // namespace bigk::apps
