// bigkstatic verifier: symbolically executes one app kernel under the taint
// and sequence/affine abstract contexts and produces its KernelReport.
//
// The verification plan (per app, on a small generated instance):
//
//   1. Taint runs. The kernel runs once concretely and `perturb_runs` times
//      with tainted branches answered by a seeded oracle. Direct violations
//      (tainted stream/addr-table indices, impure addr-gen) are collected
//      from the context; a non-prefix divergence between the recorded
//      stream-access sequences proves a tainted branch governs accesses and
//      is attributed to the first differing branch's taint origin.
//
//   2. Sequence runs. The kernel replays under the addr-gen and compute
//      instantiations (SeqCtx) for record counts {1, N/2, N}; per thread
//      and stream the compute sequence must be a prefix of the addr-gen
//      sequence (phase agreement), and writes must stay inside the writing
//      thread's record span, and inside the stream's output column when it
//      declares one, with no cross-thread read/write overlap.
//
//   3. Affine fit + online cross-validation. Each stream's per-thread
//      addr-gen byte-address sequence is fitted as base + cyclic strides
//      (offline), must agree across threads and record counts, and — fed
//      through a real core::PatternDetector — must confirm the same cycle.
//      The derived shape is hashed into the app's pattern_signature.
//
// Thread ranges mirror the engine's contiguous per-thread record partition
// (core::Engine::thread_chunk_range; always stride 1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/stream.hpp"
#include "sim/hash.hpp"
#include "verify/affine.hpp"
#include "verify/contracts.hpp"
#include "verify/seq_ctx.hpp"
#include "verify/taint_ctx.hpp"

namespace bigk::verify {

struct VerifyOptions {
  /// Abstract compute threads (contiguous record ranges, engine-style).
  std::uint32_t threads = 4;
  /// Records verified per sweep (smaller counts {1, N/2} ride along).
  std::uint64_t max_records = 96;
  /// Branch-perturbation runs beyond the concrete run.
  std::uint32_t perturb_runs = 5;
  /// Online-detector mirror for the static/online cross-validation.
  std::uint32_t probe_window = 48;
  std::uint32_t max_cycle = 32;
  std::uint64_t seed = 0x51A71Cull;
};

namespace detail {

struct Range {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

inline Range thread_range(std::uint64_t records, std::uint32_t threads,
                          std::uint32_t t) {
  const std::uint64_t per = threads == 0 ? records
                                         : (records + threads - 1) / threads;
  Range range;
  range.begin = std::min(std::uint64_t{t} * per, records);
  range.end = std::min(range.begin + per, records);
  return range;
}

/// True when `prefix` matches the head of `full` access-for-access.
inline bool is_prefix(const std::vector<TraceAccess>& prefix,
                      const std::vector<TraceAccess>& full) {
  if (prefix.size() > full.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (!(prefix[i] == full[i])) return false;
  }
  return true;
}

inline std::vector<TraceAccess> stream_slice(
    const std::vector<TraceAccess>& accesses, std::uint32_t stream) {
  std::vector<TraceAccess> out;
  for (const TraceAccess& access : accesses) {
    if (access.stream == stream) out.push_back(access);
  }
  return out;
}

inline std::vector<TraceAccess> thread_accesses(const AccessLog& log,
                                                std::uint32_t t) {
  return t < log.per_thread.size() ? log.per_thread[t]
                                   : std::vector<TraceAccess>{};
}

/// Dedup key: one report per (check, kind, call-site, stream).
inline std::string violation_key(const Violation& violation) {
  return std::string(check_name(violation.check)) + '|' + violation.kind +
         '|' + violation.site.file + ':' + std::to_string(violation.site.line) +
         '|' + std::to_string(violation.stream);
}

}  // namespace detail

template <class App>
KernelReport verify_app(App& app, const VerifyOptions& opts = {}) {
  KernelReport report;
  app.reset();

  std::vector<core::StreamBinding> bindings;
  for (const auto& decl : app.stream_decls()) bindings.push_back(decl.binding);
  const auto kernel = app.kernel();
  const std::uint64_t records =
      std::min<std::uint64_t>(app.num_records(), opts.max_records);
  const std::uint32_t threads = std::max<std::uint32_t>(opts.threads, 1);

  std::set<std::string> seen;
  const auto add_violation = [&](Violation violation) {
    if (seen.insert(detail::violation_key(violation)).second) {
      report.add(std::move(violation));
    }
  };

  // ---- 1. taint runs ------------------------------------------------------
  std::vector<std::unique_ptr<TaintMonitor>> monitors;
  std::vector<TaintRunLog> taint_logs;
  for (std::uint32_t run = 0; run <= opts.perturb_runs; ++run) {
    core::TableSet scratch = app.tables();
    auto monitor = std::make_unique<TaintMonitor>(opts.seed + run, run != 0);
    TaintRunLog log;
    {
      TaintScope scope(*monitor);
      for (std::uint32_t t = 0; t < threads; ++t) {
        const detail::Range range = detail::thread_range(records, threads, t);
        if (range.begin >= range.end) continue;
        TaintCtx ctx(bindings, scratch, *monitor, log, t);
        kernel(ctx, range.begin, range.end, /*stride=*/1);
      }
    }
    for (Violation& violation : log.violations) {
      add_violation(std::move(violation));
    }
    monitors.push_back(std::move(monitor));
    taint_logs.push_back(std::move(log));
  }

  // Divergence: a perturbed run whose stream-access sequence is not a prefix
  // (nor an extension) of the concrete run's proves control dependence.
  for (std::uint32_t run = 1; run < taint_logs.size(); ++run) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      const auto& base = t < taint_logs[0].per_thread.size()
                             ? taint_logs[0].per_thread[t]
                             : std::vector<TraceAccess>{};
      const auto& perturbed = t < taint_logs[run].per_thread.size()
                                  ? taint_logs[run].per_thread[t]
                                  : std::vector<TraceAccess>{};
      const std::size_t n = std::min(base.size(), perturbed.size());
      std::size_t diverge = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (!(base[i] == perturbed[i])) {
          diverge = i;
          break;
        }
      }
      if (diverge == n) continue;  // equal or legal early-stop prefix

      Violation violation;
      violation.check = Check::kStreamingRestriction;
      violation.kind = "branch_governs_accesses";
      violation.message =
          "stream access sequence changed under tainted-branch perturbation "
          "(a branch on a stream-derived value governs stream accesses)";
      const TraceAccess& access =
          diverge < perturbed.size() ? perturbed[diverge] : base[diverge];
      {
        const Site& site = monitors[run]->site(access.site);
        violation.site = SiteInfo{site.file, site.line, site.function};
      }
      // Attribute to the first branch whose outcome differs for this thread.
      std::vector<TaintMonitor::BranchEvent> base_events;
      for (const auto& event : monitors[0]->branches()) {
        if (event.thread == t) base_events.push_back(event);
      }
      std::size_t ordinal = 0;
      for (const auto& event : monitors[run]->branches()) {
        if (event.thread != t) continue;
        if (ordinal >= base_events.size() ||
            base_events[ordinal].outcome != event.outcome) {
          const Site& origin = monitors[run]->site(event.origin);
          violation.origin = SiteInfo{origin.file, origin.line,
                                      origin.function};
          break;
        }
        ++ordinal;
      }
      violation.stream = access.stream;
      violation.thread = t;
      add_violation(std::move(violation));
    }
  }

  // ---- 2. sequence runs (addr-gen vs compute, several record counts) ------
  std::vector<std::uint64_t> counts{1, std::max<std::uint64_t>(records / 2, 1),
                                    records};
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  TaintMonitor sites(0, false);  // call-site interning for SeqCtx
  AccessLog full_addr_gen;       // at `records`, reused by phases 2b/3
  AccessLog half_addr_gen;       // at records/2, for the cross-count check
  for (const std::uint64_t count : counts) {
    core::TableSet addr_tables = app.tables();
    core::TableSet compute_tables = app.tables();
    AccessLog addr_gen;
    AccessLog compute;
    for (std::uint32_t t = 0; t < threads; ++t) {
      const detail::Range range = detail::thread_range(count, threads, t);
      if (range.begin >= range.end) continue;
      SeqCtx actx(Phase::kAddrGen, bindings, addr_tables, sites, addr_gen, t);
      kernel(actx, range.begin, range.end, /*stride=*/1);
      SeqCtx cctx(Phase::kCompute, bindings, compute_tables, sites, compute,
                  t);
      kernel(cctx, range.begin, range.end, /*stride=*/1);
    }
    for (std::uint32_t t = 0; t < threads; ++t) {
      const auto addr_seq = detail::thread_accesses(addr_gen, t);
      const auto compute_seq = detail::thread_accesses(compute, t);
      for (std::uint32_t s = 0; s < bindings.size(); ++s) {
        const auto addr_stream = detail::stream_slice(addr_seq, s);
        const auto compute_stream = detail::stream_slice(compute_seq, s);
        if (detail::is_prefix(compute_stream, addr_stream)) continue;
        std::size_t mismatch = 0;
        const std::size_t limit =
            std::min(compute_stream.size(), addr_stream.size());
        while (mismatch < limit &&
               compute_stream[mismatch] == addr_stream[mismatch]) {
          ++mismatch;
        }
        Violation violation;
        violation.check = Check::kPhaseAgreement;
        violation.kind = "compute_not_prefix";
        violation.message =
            "compute access sequence is not a prefix of the addr-gen "
            "sequence (record count " +
            std::to_string(count) + ", access " + std::to_string(mismatch) +
            ")";
        const SiteId site_id = mismatch < compute_stream.size()
                                   ? compute_stream[mismatch].site
                                   : (compute_stream.empty()
                                          ? kNoSite
                                          : compute_stream.back().site);
        const Site& site = sites.site(site_id);
        violation.site = SiteInfo{site.file, site.line, site.function};
        if (mismatch < addr_stream.size()) {
          const Site& origin = sites.site(addr_stream[mismatch].site);
          violation.origin = SiteInfo{origin.file, origin.line,
                                      origin.function};
        }
        violation.stream = s;
        violation.thread = t;
        add_violation(std::move(violation));
      }
    }
    if (count == records) full_addr_gen = std::move(addr_gen);
    else if (count == std::max<std::uint64_t>(records / 2, 1)) {
      half_addr_gen = std::move(addr_gen);
    }
  }

  // ---- 2b. alias overlap (writes vs record spans, output columns and
  // other threads) -----------------------------------------------------------
  for (std::uint32_t s = 0; s < bindings.size(); ++s) {
    const std::uint64_t epr = bindings[s].elems_per_record;
    const std::uint32_t column = bindings[s].out_column;
    std::map<std::uint64_t, std::uint32_t> writers;  // elem -> thread
    std::map<std::uint64_t, std::uint32_t> readers;
    bool span_reported = false;
    bool column_reported = false;
    for (std::uint32_t t = 0; t < threads; ++t) {
      const detail::Range range = detail::thread_range(records, threads, t);
      for (const TraceAccess& access :
           detail::thread_accesses(full_addr_gen, t)) {
        if (access.stream != s) continue;
        if (!access.write) {
          readers.emplace(access.elem, t);
          continue;
        }
        writers.emplace(access.elem, t);
        if (!column_reported && column != core::StreamBinding::kWholeRecord &&
            access.elem % epr != column) {
          column_reported = true;
          Violation violation;
          violation.check = Check::kAliasOverlap;
          violation.kind = "write_outside_output_column";
          violation.message =
              "stream write targets element " +
              std::to_string(access.elem % epr) + " of its record, but the "
              "stream's output column is element " + std::to_string(column);
          const Site& site = sites.site(access.site);
          violation.site = SiteInfo{site.file, site.line, site.function};
          violation.stream = s;
          violation.thread = t;
          add_violation(std::move(violation));
        }
        const std::uint64_t span_begin = range.begin * epr;
        const std::uint64_t span_end = range.end * epr;
        if (!span_reported &&
            (access.elem < span_begin || access.elem >= span_end)) {
          span_reported = true;
          Violation violation;
          violation.check = Check::kAliasOverlap;
          violation.kind = "write_outside_record_span";
          violation.message =
              "stream write targets element " + std::to_string(access.elem) +
              " outside the writing thread's record span [" +
              std::to_string(span_begin) + ", " + std::to_string(span_end) +
              ")";
          const Site& site = sites.site(access.site);
          violation.site = SiteInfo{site.file, site.line, site.function};
          violation.stream = s;
          violation.thread = t;
          add_violation(std::move(violation));
        }
      }
    }
    for (const auto& [elem, writer] : writers) {
      const auto reader = readers.find(elem);
      if (reader == readers.end() || reader->second == writer) continue;
      Violation violation;
      violation.check = Check::kAliasOverlap;
      violation.kind = "cross_thread_overlap";
      violation.message =
          "element " + std::to_string(elem) + " is written by thread " +
          std::to_string(writer) + " and read by thread " +
          std::to_string(reader->second);
      violation.stream = s;
      violation.thread = writer;
      add_violation(std::move(violation));
      break;  // one report per stream
    }
  }

  // ---- 3. affine fit + online-detector cross-validation -------------------
  const auto thread_addrs = [&](const AccessLog& log, std::uint32_t t,
                                std::uint32_t s, bool writes) {
    std::vector<std::uint64_t> addrs;
    for (const TraceAccess& access : detail::thread_accesses(log, t)) {
      if (access.stream == s && access.write == writes) {
        addrs.push_back(access.elem * bindings[s].elem_size);
      }
    }
    return addrs;
  };

  // Attribute pattern violations to the stream's first read call-site (the
  // affine domain works on whole sequences, so no single access is "the"
  // offender; the read statement that produced them is).
  const auto first_read_site = [&](std::uint32_t s) -> SiteInfo {
    for (const auto& accesses : full_addr_gen.per_thread) {
      for (const TraceAccess& access : accesses) {
        if (access.stream != s || access.write) continue;
        const Site& site = sites.site(access.site);
        return SiteInfo{site.file, site.line, site.function};
      }
    }
    return {};
  };

  report.affine_reads = true;
  for (std::uint32_t s = 0; s < bindings.size(); ++s) {
    StreamReport stream;
    stream.stream = s;
    for (const bool writes : {false, true}) {
      std::optional<core::StridePattern> fitted;
      bool any = false;
      bool affine = true;
      for (std::uint32_t t = 0; t < threads; ++t) {
        const auto addrs = thread_addrs(full_addr_gen, t, s, writes);
        if (addrs.empty()) continue;
        any = true;
        if (addrs.size() < 3) continue;  // too short to constrain
        const auto fit = fit_stride_cycle(addrs, opts.max_cycle);
        if (!fit) {
          affine = false;
          break;
        }
        if (fitted && !same_cycle(fitted->strides, fit->strides)) {
          affine = false;
          break;
        }
        if (!fitted) fitted = fit;
      }
      // Cross-record-count agreement: the cycle derived at N/2 must match.
      if (affine && fitted) {
        for (std::uint32_t t = 0; t < threads && affine; ++t) {
          const auto addrs = thread_addrs(half_addr_gen, t, s, writes);
          if (addrs.size() < 3) continue;
          const auto fit = fit_stride_cycle(addrs, opts.max_cycle);
          if (!fit || !same_cycle(fitted->strides, fit->strides)) {
            affine = false;
            Violation violation;
            violation.check = Check::kPatternConsistency;
            violation.kind = "cycle_varies_with_record_count";
            violation.message =
                "derived stride cycle changes between record counts";
            if (!writes) violation.site = first_read_site(s);
            violation.stream = s;
            violation.thread = t;
            add_violation(std::move(violation));
          }
        }
      }
      if (writes) {
        stream.has_writes = any;
        if (affine && fitted) stream.write_strides = fitted->strides;
      } else {
        stream.has_reads = any;
        stream.affine = any && affine && fitted.has_value();
        if (stream.affine) stream.read_strides = fitted->strides;
        if (any && !stream.affine) report.affine_reads = false;

        // Online cross-validation on the longest read sequence.
        std::vector<std::uint64_t> longest;
        for (std::uint32_t t = 0; t < threads; ++t) {
          auto addrs = thread_addrs(full_addr_gen, t, s, false);
          if (addrs.size() > longest.size()) longest = std::move(addrs);
        }
        if (longest.size() >= 3) {
          const auto online = detector_pattern(longest, opts.probe_window,
                                               opts.max_cycle);
          if (stream.affine) {
            stream.detector_confirmed =
                online && same_cycle(online->strides, stream.read_strides);
            if (!stream.detector_confirmed) {
              Violation violation;
              violation.check = Check::kPatternConsistency;
              violation.kind = "detector_disagrees";
              violation.message =
                  online ? "online PatternDetector confirmed a different "
                           "stride cycle than the static fit"
                         : "online PatternDetector broke on a statically "
                           "affine sequence";
              violation.site = first_read_site(s);
              violation.stream = s;
              add_violation(std::move(violation));
            }
          } else if (online && stream.has_reads) {
            Violation violation;
            violation.check = Check::kPatternConsistency;
            violation.kind = "static_fit_missed";
            violation.message =
                "online PatternDetector confirmed a pattern the static "
                "affine fit did not derive";
            violation.site = first_read_site(s);
            violation.stream = s;
            add_violation(std::move(violation));
          }
        }
      }
    }
    report.streams.push_back(std::move(stream));
  }

  // ---- verdict + pattern signature ---------------------------------------
  report.passed = report.checks.all();
  if (report.passed) {
    sim::Digest hash;
    for (const StreamReport& stream : report.streams) {
      hash.mix(stream.stream);
      hash.mix(bindings[stream.stream].elem_size);
      hash.mix(stream.affine ? 1 : 0);
      hash.mix(stream.read_strides.size());
      for (const std::int64_t stride : stream.read_strides) {
        hash.mix(static_cast<std::uint64_t>(stride));
      }
      hash.mix(stream.write_strides.size());
      for (const std::int64_t stride : stream.write_strides) {
        hash.mix(static_cast<std::uint64_t>(stride));
      }
    }
    report.pattern_signature = hash.value();
  }
  return report;
}

}  // namespace bigk::verify
