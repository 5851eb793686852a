// Thread-count-independent parallel sums of per-vertex double terms.
//
// A `reduction(+ : total)` over doubles adds the per-thread partials in
// whatever grouping the schedule produced, so the low bits of a sketch
// estimate changed with OMP_NUM_THREADS. fixed_block_sum fixes the
// grouping instead: the order of every addition depends only on n.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace probgraph::util {

/// Vertices per summation block of fixed_block_sum.
inline constexpr std::int64_t kSumBlock = 32;

/// Σ over u < n of the terms `add(u, acc)` adds into `acc`, independent of
/// the thread count: each fixed block of kSumBlock u-vertices is summed in
/// u order into its own partial, and the partials are added in block order
/// (the blocks are handed out dynamically, one at a time). `make_adder`
/// runs once per thread and returns that thread's `add`, which owns the
/// thread's scratch. A graph of at most kSumBlock vertices is one block:
/// the plain sequential sum.
template <typename MakeAdder>
double fixed_block_sum(VertexId n, MakeAdder make_adder) {
  const std::int64_t blocks = (static_cast<std::int64_t>(n) + kSumBlock - 1) / kSumBlock;
  std::vector<double> partial(static_cast<std::size_t>(blocks), 0.0);
#pragma omp parallel
  {
    auto add = make_adder();
#pragma omp for schedule(dynamic, 1)
    for (std::int64_t block = 0; block < blocks; ++block) {
      const std::int64_t end = std::min<std::int64_t>(n, (block + 1) * kSumBlock);
      double acc = 0.0;
      for (std::int64_t u = block * kSumBlock; u < end; ++u) add(static_cast<VertexId>(u), acc);
      partial[static_cast<std::size_t>(block)] = acc;
    }
  }
  double total = 0.0;
  for (const double p : partial) total += p;
  return total;
}

}  // namespace probgraph::util
