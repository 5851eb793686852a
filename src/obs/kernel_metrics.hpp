// Per-kernel invocation/element tallies for the dispatched set-operation
// layer (core/kernels). SISA's unit of account is the set operation, so
// these counters make the estimator mix visible at scrape time: how many
// merge vs gallop intersections ran, how many bitvector words were
// popcounted, how many MinHash slots were matched.
//
// The counters live here unconditionally (so the exposition code always
// compiles and links); the *increments* in kernels.hpp are compiled in
// only under PROBGRAPH_OBS, making the OFF build bit-for-bit free of
// instrumentation in the per-element hot loops' callers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/instruments.hpp"

namespace probgraph::obs {

/// One entry per dispatched kernel wrapper in core/kernels/kernels.hpp.
enum class KernelOp : std::uint8_t {
  kIntersectCountMerge,
  kIntersectCountGallop,
  kIntersectIntoMerge,
  kIntersectIntoGallop,
  kAndPopcount,
  kOrPopcount,
  kAnd3Popcount,
  kPopcount,
  kMatchCountU64,
  kMinMerge,
  kBloomMemberCompact,
  kCount_,  // sentinel
};

inline constexpr std::size_t kNumKernelOps =
    static_cast<std::size_t>(KernelOp::kCount_);

inline constexpr const char* kKernelOpNames[kNumKernelOps] = {
    "intersect_count_merge", "intersect_count_gallop", "intersect_into_merge",
    "intersect_into_gallop", "and_popcount",           "or_popcount",
    "and3_popcount",         "popcount",               "match_count_u64",
    "min_merge",             "bloom_member_compact",
};

/// Process-global tallies. constinit: usable from any static initializer
/// and free of guard checks on the hot path. "elements" is the op's input
/// size — list lengths for intersections, words for popcounts, slots for
/// match/min-merge, probed candidates for the Bloom membership compaction —
/// i.e. the work metric, not the result.
struct KernelCounters {
  Counter invocations[kNumKernelOps];
  Counter elements[kNumKernelOps];
};

inline constinit KernelCounters g_kernel_counters{};

inline void record_kernel(KernelOp op, std::uint64_t elems) noexcept {
  const auto i = static_cast<std::size_t>(op);
  g_kernel_counters.invocations[i].add(1);
  g_kernel_counters.elements[i].add(elems);
}

/// Batched call sites (est_intersection_batch) fold a whole batch into
/// one pair of adds instead of one per candidate.
inline void record_kernel_batch(KernelOp op, std::uint64_t calls,
                                std::uint64_t elems) noexcept {
  const auto i = static_cast<std::size_t>(op);
  g_kernel_counters.invocations[i].add(calls);
  g_kernel_counters.elements[i].add(elems);
}

}  // namespace probgraph::obs
