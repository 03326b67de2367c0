// bigkstatic taint domain (abstract interpretation over kernel values).
//
// The BigKernel contract (§III, restated in core/contexts.hpp) demands that
// the sequence of stream accesses never depends on stream *values*, and that
// address generation survives the compiler's statement stripping: only
// load_addr_table() is kept, so an address computed from a load_table() or
// atomic result would silently change meaning in the addr-gen instantiation.
//
// Tainted<T> is the abstract value: a concrete T plus a small lattice
//
//     kClean  <  kStream | kStripped  <  both
//
// where kStream marks "derived from a stream read()" and kStripped marks
// "derived from a table load/atomic result that addr-gen replaces with a
// dummy". Every arithmetic operator joins taints and keeps the provenance of
// the first tainted operand — the kernel call-site (std::source_location)
// where the value entered the kernel — so a violation can name the exact
// read that poisoned an address.
//
// Control flow cannot be overloaded in plain C++, so tainted branches are
// handled concolically: `explicit operator bool` reports the branch to the
// active TaintMonitor, which on the concrete run returns the real outcome
// and on perturbation runs returns seeded random outcomes. The verifier
// executes several runs and compares the recorded stream-access sequences;
// a non-prefix divergence proves a branch on a tainted value governs stream
// accesses (prefixes are allowed: the contract permits early stop).
#pragma once

#include <cstdint>
#include <source_location>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/hash.hpp"

namespace bigk::verify {

/// Taint lattice as a bitmask; join is bitwise-or.
enum class Taint : std::uint8_t {
  kClean = 0,
  kStream = 1,    // derived from a stream read()
  kStripped = 2,  // derived from a load_table()/atomic result
};

constexpr Taint operator|(Taint a, Taint b) {
  return static_cast<Taint>(static_cast<std::uint8_t>(a) |
                            static_cast<std::uint8_t>(b));
}
constexpr bool has_taint(Taint t, Taint bit) {
  return (static_cast<std::uint8_t>(t) & static_cast<std::uint8_t>(bit)) != 0;
}

/// Interned kernel call-site. Id 0 is reserved for "no site".
using SiteId = std::uint32_t;
constexpr SiteId kNoSite = 0;

struct Site {
  std::string file;
  std::uint32_t line = 0;
  std::string function;
};

/// Per-verification-run recorder: interns call-sites, answers tainted
/// branches (concrete on run 0, seeded-random on perturbation runs), and
/// logs every branch event for divergence attribution. One monitor is
/// installed per run via TaintScope; kernels never see it directly.
class TaintMonitor {
 public:
  struct BranchEvent {
    SiteId origin = kNoSite;  // call-site of the read that tainted the value
    Taint taint = Taint::kClean;
    std::uint32_t thread = 0;
    bool outcome = false;
  };

  TaintMonitor(std::uint64_t seed, bool perturb)
      : rng_(seed), perturb_(perturb) {
    sites_.push_back(Site{});  // slot for kNoSite
  }

  SiteId intern(const std::source_location& loc) {
    for (SiteId id = 1; id < sites_.size(); ++id) {
      if (sites_[id].line == loc.line() && sites_[id].file == loc.file_name()) {
        return id;
      }
    }
    sites_.push_back(
        Site{loc.file_name(), loc.line(), loc.function_name()});
    return static_cast<SiteId>(sites_.size() - 1);
  }

  const Site& site(SiteId id) const { return sites_[id]; }

  void set_thread(std::uint32_t thread) { thread_ = thread; }
  std::uint32_t thread() const { return thread_; }

  /// Answers a branch on a tainted value and records the event.
  bool branch(bool concrete, Taint taint, SiteId origin) {
    bool outcome = concrete;
    // Cap the perturbation so a (contract-violating) loop guarded by a
    // tainted condition still terminates under random outcomes.
    if (perturb_ && branches_.size() < kMaxPerturbedBranches) {
      outcome = ((rng_.next() >> 33) & 1) != 0;
    }
    branches_.push_back(BranchEvent{origin, taint, thread_, outcome});
    return outcome;
  }

  const std::vector<BranchEvent>& branches() const { return branches_; }

  static TaintMonitor* active() { return active_; }

 private:
  friend class TaintScope;
  static constexpr std::size_t kMaxPerturbedBranches = 1u << 16;

  // The installed monitor. A plain static, not thread_local: the simulator
  // runs on one OS thread (see scripts/ci.sh), and UBSan reported every
  // access to the thread_local as a null-pointer store or load.
  static inline TaintMonitor* active_ = nullptr;

  std::vector<Site> sites_;
  std::vector<BranchEvent> branches_;
  sim::SplitMix64 rng_;
  bool perturb_;
  std::uint32_t thread_ = 0;
};

/// RAII installation of the run's monitor.
class TaintScope {
 public:
  explicit TaintScope(TaintMonitor& monitor) : previous_(TaintMonitor::active_) {
    TaintMonitor::active_ = &monitor;
  }
  ~TaintScope() { TaintMonitor::active_ = previous_; }
  TaintScope(const TaintScope&) = delete;
  TaintScope& operator=(const TaintScope&) = delete;

 private:
  TaintMonitor* previous_;
};

/// Abstract kernel value: concrete value + taint + provenance.
template <class T>
struct Tainted {
  static_assert(std::is_arithmetic_v<T>);

  T v{};
  Taint taint = Taint::kClean;
  SiteId origin = kNoSite;

  constexpr Tainted() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): clean literals must mix in.
  constexpr Tainted(T value) : v(value) {}
  constexpr Tainted(T value, Taint t, SiteId o) : v(value), taint(t), origin(o) {}

  template <class U>
  // NOLINTNEXTLINE(google-explicit-constructor): joins across value types.
  constexpr Tainted(const Tainted<U>& other)
      : v(static_cast<T>(other.v)), taint(other.taint), origin(other.origin) {}

  /// Branches on tainted values go through the active monitor's oracle.
  explicit operator bool() const {
    const bool concrete = v != T{};
    if (taint == Taint::kClean) return concrete;
    TaintMonitor* monitor = TaintMonitor::active();
    return monitor != nullptr ? monitor->branch(concrete, taint, origin)
                              : concrete;
  }

  template <class U>
  Tainted& operator+=(const U& other) { return *this = *this + other; }
  template <class U>
  Tainted& operator-=(const U& other) { return *this = *this - other; }
  template <class U>
  Tainted& operator*=(const U& other) { return *this = *this * other; }
  template <class U>
  Tainted& operator/=(const U& other) { return *this = *this / other; }
  template <class U>
  Tainted& operator%=(const U& other) { return *this = *this % other; }
  template <class U>
  Tainted& operator^=(const U& other) { return *this = *this ^ other; }
  template <class U>
  Tainted& operator&=(const U& other) { return *this = *this & other; }
  template <class U>
  Tainted& operator|=(const U& other) { return *this = *this | other; }
};

namespace detail {
/// Joined provenance: prefer the stream-tainted operand's origin (that is
/// the read a streaming-restriction report should name).
constexpr SiteId join_origin(Taint ta, SiteId oa, Taint tb, SiteId ob) {
  if (has_taint(ta, Taint::kStream)) return oa;
  if (has_taint(tb, Taint::kStream)) return ob;
  return oa != kNoSite ? oa : ob;
}
}  // namespace detail

#define BIGK_TAINT_BINOP(op)                                                  \
  template <class A, class B>                                                 \
  constexpr auto operator op(const Tainted<A>& a, const Tainted<B>& b) {      \
    using R = decltype(a.v op b.v);                                           \
    return Tainted<R>(static_cast<R>(a.v op b.v), a.taint | b.taint,          \
                      detail::join_origin(a.taint, a.origin, b.taint,         \
                                          b.origin));                         \
  }                                                                           \
  template <class A, class B>                                                 \
    requires std::is_arithmetic_v<B>                                          \
  constexpr auto operator op(const Tainted<A>& a, B b) {                      \
    using R = decltype(a.v op b);                                             \
    return Tainted<R>(static_cast<R>(a.v op b), a.taint, a.origin);           \
  }                                                                           \
  template <class A, class B>                                                 \
    requires std::is_arithmetic_v<A>                                          \
  constexpr auto operator op(A a, const Tainted<B>& b) {                      \
    using R = decltype(a op b.v);                                             \
    return Tainted<R>(static_cast<R>(a op b.v), b.taint, b.origin);           \
  }

#define BIGK_TAINT_CMPOP(op)                                                  \
  template <class A, class B>                                                 \
  constexpr Tainted<bool> operator op(const Tainted<A>& a,                    \
                                      const Tainted<B>& b) {                  \
    return Tainted<bool>(a.v op b.v, a.taint | b.taint,                       \
                         detail::join_origin(a.taint, a.origin, b.taint,      \
                                             b.origin));                      \
  }                                                                           \
  template <class A, class B>                                                 \
    requires std::is_arithmetic_v<B>                                          \
  constexpr Tainted<bool> operator op(const Tainted<A>& a, B b) {             \
    return Tainted<bool>(a.v op b, a.taint, a.origin);                        \
  }                                                                           \
  template <class A, class B>                                                 \
    requires std::is_arithmetic_v<A>                                          \
  constexpr Tainted<bool> operator op(A a, const Tainted<B>& b) {             \
    return Tainted<bool>(a op b.v, b.taint, b.origin);                        \
  }

BIGK_TAINT_BINOP(+)
BIGK_TAINT_BINOP(-)
BIGK_TAINT_BINOP(*)
BIGK_TAINT_BINOP(/)
BIGK_TAINT_BINOP(%)
BIGK_TAINT_BINOP(^)
BIGK_TAINT_BINOP(&)
BIGK_TAINT_BINOP(|)
BIGK_TAINT_BINOP(<<)
BIGK_TAINT_BINOP(>>)
BIGK_TAINT_CMPOP(==)
BIGK_TAINT_CMPOP(!=)
BIGK_TAINT_CMPOP(<)
BIGK_TAINT_CMPOP(<=)
BIGK_TAINT_CMPOP(>)
BIGK_TAINT_CMPOP(>=)

#undef BIGK_TAINT_BINOP
#undef BIGK_TAINT_CMPOP

template <class T>
constexpr Tainted<T> operator-(const Tainted<T>& a) {
  return Tainted<T>(static_cast<T>(-a.v), a.taint, a.origin);
}
template <class T>
constexpr Tainted<T> operator~(const Tainted<T>& a) {
  return Tainted<T>(static_cast<T>(~a.v), a.taint, a.origin);
}

/// ADL overload of core::value_cast: casts keep taint and provenance.
template <class To, class From>
constexpr Tainted<To> value_cast(const Tainted<From>& value) {
  return Tainted<To>(static_cast<To>(value.v), value.taint, value.origin);
}

/// ADL overload of apps::fnv1a for tainted hashes (same fold, joined taint).
constexpr Tainted<std::uint64_t> fnv1a(Tainted<std::uint64_t> hash,
                                       Tainted<std::uint64_t> value) {
  return Tainted<std::uint64_t>(
      sim::fnv1a(hash.v, value.v), hash.taint | value.taint,
      detail::join_origin(hash.taint, hash.origin, value.taint, value.origin));
}

}  // namespace bigk::verify
