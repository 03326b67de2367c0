// Shared application infrastructure: the deterministic RNG and digest (from
// sim/hash.hpp), Table-I metadata, and the scaling rule that maps the
// paper's multi-gigabyte inputs onto simulation-friendly sizes.
//
// Scaling: every capacity (input bytes, GPU memory) is multiplied by the
// same factor, so the out-of-core ratio — the property all of the paper's
// effects depend on — is preserved exactly. Rates (GB/s, GHz) are never
// scaled, so time *ratios* are scale-invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/stream.hpp"
#include "gpusim/config.hpp"
#include "sim/hash.hpp"

namespace bigk::apps {

/// Kernel-value cast: resolves to static_cast on executing contexts and to
/// the taint-preserving overload (via ADL) when kernels run under
/// bigkstatic's abstract contexts.
using core::value_cast;

/// Deterministic 64-bit RNG (splitmix64): seedable, fast, and identical on
/// every platform, so generated datasets and results are reproducible.
using Rng = sim::SplitMix64;

/// FNV-1a, used for both in-kernel hashing and result digests.
using sim::fnv1a;
using sim::kFnvBasis;

/// Charges `ops` arithmetic operations, inflated by `warp_divergence` on
/// SIMD (GPU) contexts. Divergent branches make lock-step warps execute both
/// paths; each kernel declares how branchy its inner loop is (1.0 = uniform
/// control flow, e.g. K-means; ~3 = heavily data-dependent text processing).
/// CPU contexts execute scalar code and pay the plain cost. `ops` is a
/// template so abstract (tainted) values can flow through unchanged.
template <class Ctx, class Ops>
void charge_alu(Ctx& ctx, Ops ops, double warp_divergence) {
  if (Ctx::kSimd) {
    ctx.alu(ops * warp_divergence);
  } else {
    ctx.alu(ops);
  }
}

/// An app's input, split in two halves:
///  - an immutable `Dataset`, what the generator makes from the app's Params:
///    the stream arrays, the read-only tables and the initial values of the
///    tables a run writes. Any number of runs may share one (BenchApp does);
///  - the per-run TableSet that one run uploads, writes and downloads.
/// Built from a Dataset rvalue, the input is the dataset's only owner and
/// takes the tables by move, so an app built straight from its Params keeps
/// one copy of every array. Built over a shared dataset, it copies them on
/// the first non-const tables() call, so an app that has not run holds none.
template <class Dataset>
class AppInput {
 public:
  explicit AppInput(Dataset&& owned)
      : tables_(std::move(owned.tables)),
        data_(std::make_shared<const Dataset>(std::move(owned))) {}
  explicit AppInput(std::shared_ptr<const Dataset> shared)
      : data_(std::move(shared)) {}

  const Dataset& data() const noexcept { return *data_; }
  /// The run's own tables, copied from the dataset on the first call.
  core::TableSet& tables() {
    if (!tables_.has_value()) tables_.emplace(data_->tables);
    return *tables_;
  }
  /// The run's tables, or before the first copy the dataset's, which hold
  /// the same bytes.
  const core::TableSet& tables() const noexcept {
    return tables_.has_value() ? *tables_ : data_->tables;
  }

 private:
  // Declared first: the owning constructor moves the tables out of the
  // dataset before the rest of it moves into data_.
  std::optional<core::TableSet> tables_;
  std::shared_ptr<const Dataset> data_;
};

/// A Table I row: the paper-scale characteristics of an app's mapped data.
struct AppInfo {
  std::string name;
  double paper_data_gb = 0.0;  // "Data Size" column
  const char* record_type = "Fixed-length";
  double read_pct = 0.0;      // "Mapped Data Access Proportion: Read"
  double modified_pct = 0.0;  // "...: Modified"
};

/// Scale factor applied to the paper's testbed and datasets. The same value
/// must be used for the SystemConfig and for app sizing.
struct ScaledSystem {
  double scale = 0.01;

  gpusim::SystemConfig config() const {
    gpusim::SystemConfig system;
    system.capacity_scale = scale;
    system.gpu.global_memory_bytes = static_cast<std::uint64_t>(
        2.0 * 1024 * 1024 * 1024 * scale);  // GTX 680: 2 GB
    return system;
  }

  /// Scaled byte size for a paper-scale dataset of `gigabytes` (1 GB = 2^30).
  std::uint64_t data_bytes(double gigabytes) const {
    return static_cast<std::uint64_t>(gigabytes * 1024 * 1024 * 1024 * scale);
  }
};

}  // namespace bigk::apps
