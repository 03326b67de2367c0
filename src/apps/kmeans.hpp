// K-means (assignment step), the paper's running example (§III).
//
// Mapped data: particles as fixed 64-byte records of 8 doubles
// [x, y, z, w, cid, r0, r1, r2]. The kernel reads the 4 coordinates
// (32 B = 50% of the record, Table I) and writes the cluster id
// (8 B = 12.5% ~ the paper's 12%). The cid element is the stream's output
// column: its writes land in a per-run array of one double per record, so
// every run reads the same particles and owns only the ids it writes. The
// centroid table is explicitly device-resident, outside BigKernel's purview,
// exactly as in the paper's example; it is loaded once per thread slice
// (shared-memory style) and the per-record work is the k-way distance
// computation.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/common.hpp"
#include "core/stream.hpp"
#include "schemes/runners.hpp"

namespace bigk::apps {

class KmeansApp {
 public:
  static constexpr std::uint32_t kElemsPerRecord = 8;
  static constexpr std::uint32_t kReadsPerRecord = 4;
  /// The record element the kernel writes: the cluster id.
  static constexpr std::uint32_t kClusterIdElem = 4;
  static constexpr std::uint32_t kClusters = 64;
  static constexpr std::uint32_t kDims = 4;

  struct Params {
    std::uint64_t data_bytes = 6ull << 20;
    std::uint64_t seed = 1;
  };

  /// The generated particles (every cid -1) and the centroid table.
  struct Dataset {
    explicit Dataset(const Params& params);
    std::uint64_t records = 0;
    std::vector<double> particles;
    core::TableSet tables;
    core::TableRef<double> centroids;
  };

  /// Generates a dataset that this app alone owns.
  explicit KmeansApp(const Params& params)
      : input_(Dataset(params)), cluster_ids_(num_records(), -1.0) {}
  /// Runs over `data`, which other apps may share and none writes: the
  /// kernel writes cluster ids into this app's own column.
  explicit KmeansApp(std::shared_ptr<const Dataset> data)
      : input_(std::move(data)), cluster_ids_(num_records(), -1.0) {}

  // --- scheme-runner interface ---
  void reset();
  std::uint64_t num_records() const { return input_.data().records; }
  core::TableSet& tables() { return input_.tables(); }
  const core::TableSet& tables() const { return input_.tables(); }
  bool interleaved_records() const { return true; }
  std::vector<schemes::StreamDecl> stream_decls();

  struct Kernel {
    core::StreamRef<double> particles{0};
    core::TableRef<double> centroids;

    template <class Ctx>
    void operator()(Ctx& ctx, std::uint64_t rec_begin, std::uint64_t rec_end,
                    std::uint64_t stride) const {
      // Centroids are staged once per slice (shared memory in a real
      // kernel); values are dummies during address generation, which is fine
      // because they do not influence any stream address. Locals derived
      // from stream/table values use core::Val so bigkstatic can track them.
      core::Val<Ctx, double> centroid[kClusters][kDims];
      for (std::uint32_t c = 0; c < kClusters; ++c) {
        for (std::uint32_t d = 0; d < kDims; ++d) {
          centroid[c][d] = ctx.load_table(centroids, c * kDims + d);
        }
      }
      for (std::uint64_t r = rec_begin; r < rec_end; r += stride) {
        const std::uint64_t base = r * kElemsPerRecord;
        core::Val<Ctx, double> point[kDims];
        for (std::uint32_t d = 0; d < kDims; ++d) {
          point[d] = ctx.read(particles, base + d);
        }
        core::Val<Ctx, double> best = 1e300;
        std::uint32_t best_cluster = 0;
        for (std::uint32_t c = 0; c < kClusters; ++c) {
          core::Val<Ctx, double> dist = 0.0;
          for (std::uint32_t d = 0; d < kDims; ++d) {
            const auto delta = point[d] - centroid[c][d];
            dist += delta * delta;
          }
          if (dist < best) {
            best = dist;
            best_cluster = c;
          }
        }
        ctx.alu(kClusters * (3.0 * kDims + 2.0));
        ctx.write(particles, base + kClusterIdElem,
                  value_cast<double>(best_cluster));
      }
    }
  };

  Kernel kernel() const { return Kernel{{0}, input_.data().centroids}; }

  // --- metadata / validation ---
  static AppInfo paper_info() {
    return AppInfo{"K-means", 6.0, "Fixed-length", 50.0, 12.0};
  }
  std::uint64_t result_digest() const;

 private:
  AppInput<Dataset> input_;
  // The stream's output column: record r's cluster id.
  std::vector<double> cluster_ids_;
};

}  // namespace bigk::apps
