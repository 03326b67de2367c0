// Virtual-time weighted-fair queueing over tenant queues (start-time fair
// queueing, SFQ): each item gets a start tag S = max(V, tenant's last finish
// tag) and a finish tag F = S + cost / weight; the queue serves the minimum
// finish tag and advances the virtual clock V to the served item's start
// tag. With all-integer tags and a deterministic tie-break (finish tag, then
// tenant index, then arrival sequence), the schedule is reproducible bit for
// bit.
//
// Weight 0 is a background tenant: it runs at an epsilon weight (1/64 of
// weight 1), so it falls far behind every weighted tenant under load but is
// never starved forever — its finish tag is finite, and V monotonically
// catches up as weighted tenants receive service, at which point their
// ever-growing finish tags pass it and the background item is served.
//
// A kFifo discipline (serve strictly by arrival sequence, tenant-blind) is
// provided as the baseline the QoS benchmarks compare against.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bigk::serve {

enum class Discipline : std::uint8_t {
  /// Global arrival order, tenant-blind (the baseline).
  kFifo,
  /// Virtual-time weighted-fair queueing over tenant queues.
  kWfq,
};

inline const char* discipline_name(Discipline discipline) {
  switch (discipline) {
    case Discipline::kFifo: return "fifo";
    case Discipline::kWfq: return "wfq";
  }
  return "?";
}

/// Parses a discipline name; throws std::invalid_argument listing the valid
/// names on anything unknown.
inline Discipline discipline_from_name(std::string_view name) {
  if (name == "fifo") return Discipline::kFifo;
  if (name == "wfq") return Discipline::kWfq;
  throw std::invalid_argument("unknown queueing discipline \"" +
                              std::string(name) +
                              "\"; valid disciplines: \"fifo\" \"wfq\"");
}

/// The tenant-aware reorder stage between admission and device dispatch.
/// Pure bookkeeping (never touches the simulation clock), one FIFO per
/// tenant inside.
template <class T>
class QosQueue {
 public:
  /// Virtual-cost scale: one cost unit at weight 1 advances a tenant's
  /// finish tag by kVirtualScale / kWeightScale.
  static constexpr std::uint64_t kVirtualScale = 1ull << 20;
  /// Effective weight of weight w is w * kWeightScale; weight 0 gets an
  /// effective weight of 1 (the epsilon that prevents total starvation).
  static constexpr std::uint64_t kWeightScale = 64;

  QosQueue(Discipline discipline, const std::vector<std::uint32_t>& weights)
      : discipline_(discipline) {
    if (weights.empty()) {
      throw std::invalid_argument("QosQueue needs at least one tenant");
    }
    tenants_.reserve(weights.size());
    for (const std::uint32_t weight : weights) {
      TenantQueue tq;
      tq.eff_weight = weight > 0 ? static_cast<std::uint64_t>(weight) *
                                       kWeightScale
                                 : 1;
      tenants_.push_back(std::move(tq));
    }
  }

  QosQueue(const QosQueue&) = delete;
  QosQueue& operator=(const QosQueue&) = delete;

  /// Enqueues `item` for `tenant`. `cost` is the item's service demand in
  /// arbitrary units (the server passes input KiB); 0 is clamped to 1 so
  /// every item advances the tags.
  void push(std::uint32_t tenant, T item, std::uint64_t cost) {
    TenantQueue& tq = tenants_.at(tenant);
    Entry entry;
    entry.item = std::move(item);
    entry.seq = next_seq_++;
    const std::uint64_t vcost =
        std::max<std::uint64_t>(1, cost) * kVirtualScale / tq.eff_weight;
    entry.vstart = std::max(virtual_time_, tq.last_vfinish);
    entry.vfinish = entry.vstart + std::max<std::uint64_t>(1, vcost);
    tq.last_vfinish = entry.vfinish;
    tq.queue.push_back(std::move(entry));
    ++size_;
  }

  /// Serves the next item (min finish tag under kWfq, min arrival sequence
  /// under kFifo); std::nullopt when empty.
  std::optional<T> pop() {
    std::size_t best = tenants_.size();
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      if (tenants_[t].queue.empty()) continue;
      if (best == tenants_.size() ||
          comes_first(tenants_[t].queue.front(), t,
                      tenants_[best].queue.front(), best)) {
        best = t;
      }
    }
    if (best == tenants_.size()) return std::nullopt;
    Entry entry = std::move(tenants_[best].queue.front());
    tenants_[best].queue.pop_front();
    --size_;
    if (entry.vstart > virtual_time_) virtual_time_ = entry.vstart;
    return std::move(entry.item);
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

 private:
  struct Entry {
    T item{};
    std::uint64_t vstart = 0;
    std::uint64_t vfinish = 0;
    std::uint64_t seq = 0;
  };

  struct TenantQueue {
    std::deque<Entry> queue;
    std::uint64_t last_vfinish = 0;
    std::uint64_t eff_weight = 1;
  };

  bool comes_first(const Entry& a, std::size_t ta, const Entry& b,
                   std::size_t tb) const {
    if (discipline_ == Discipline::kFifo) return a.seq < b.seq;
    if (a.vfinish != b.vfinish) return a.vfinish < b.vfinish;
    if (ta != tb) return ta < tb;
    return a.seq < b.seq;
  }

  Discipline discipline_;
  std::vector<TenantQueue> tenants_;
  std::uint64_t virtual_time_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace bigk::serve
