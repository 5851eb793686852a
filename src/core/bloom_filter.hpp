// Bloom filters (paper §II-D).
//
// A Bloom filter B_X for a set X is an l-bit vector plus b hash functions
// h_1..h_b; inserting x sets bits B_X[h_i(x)], membership tests check that
// all b bits are set (false positives possible, false negatives not).
//
// Two flavors are provided:
//   * BloomFilter      — an owning filter over its own BitVector (public
//                        API, tests, examples),
//   * BloomFilterView  — a non-owning view into the ProbGraph arena, where
//                        all n per-vertex filters share one allocation and
//                        one width (the load-balancing property of Fig. 1
//                        panel 5).
//
// BloomProbeTable is the batch form of `contains` for those arena filters:
// since they all share (B, b, family), the bit positions of an id are the
// same in every filter, so one table of them answers membership in any
// filter of the substrate (and in ANDs of them) without hashing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "util/bitvector.hpp"
#include "util/hash.hpp"
#include "util/types.hpp"

namespace probgraph {

/// Non-owning Bloom filter over a word span inside a sketch arena.
class BloomFilterView {
 public:
  BloomFilterView(std::span<const std::uint64_t> words, std::uint64_t bits,
                  std::uint32_t num_hashes, util::HashFamily family) noexcept
      : words_(words), bits_(bits), num_hashes_(num_hashes), family_(family) {}

  /// Filter width in bits (the paper's B_X).
  [[nodiscard]] std::uint64_t size_bits() const noexcept { return bits_; }
  /// Number of hash functions b.
  [[nodiscard]] std::uint32_t num_hashes() const noexcept { return num_hashes_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Number of set bits B_{X,1}.
  [[nodiscard]] std::uint64_t count_ones() const noexcept { return util::popcount(words_); }

  /// Membership query: true iff all b bit positions for x are set.
  [[nodiscard]] bool contains(std::uint64_t x) const noexcept {
    for (std::uint32_t i = 0; i < num_hashes_; ++i) {
      const std::uint64_t pos = family_(i, x) % bits_;
      if (!((words_[pos / kWordBits] >> (pos % kWordBits)) & 1U)) return false;
    }
    return true;
  }

  /// B_{X∩Y,1} approximated as popcount(B_X AND B_Y) — the practical scheme
  /// of §IV-B ("In practice, we use B_{X∩Y} ≈ B_X AND B_Y").
  [[nodiscard]] std::uint64_t and_ones(const BloomFilterView& other) const noexcept {
    return util::and_popcount(words_, other.words_);
  }

  /// popcount(B_X OR B_Y), the B_{X∪Y,1} of the OR estimator.
  [[nodiscard]] std::uint64_t or_ones(const BloomFilterView& other) const noexcept {
    return util::or_popcount(words_, other.words_);
  }

 private:
  std::span<const std::uint64_t> words_;
  std::uint64_t bits_;
  std::uint32_t num_hashes_;
  util::HashFamily family_;
};

/// Per-query probe table over ids [0, n) for filters of width `bits` and
/// hash family (num_hashes, family): row x holds x's b bit positions
/// h_i(x) mod B as uint32. Built in parallel, O(n·b) hashes, 4·n·b bytes.
/// The BF clique kernels build one per query (it is not cached or stored
/// in a snapshot) and push every C3 candidate filter through
/// kernels::bloom_member_compact, which then costs b loads per probe
/// instead of b hashes, b 64-bit divisions and a branch.
class BloomProbeTable {
 public:
  /// Throws std::invalid_argument for bits == 0, num_hashes == 0, or a
  /// width whose positions do not fit 32 bits (bits > 2^32).
  BloomProbeTable(VertexId n, std::uint64_t bits, std::uint32_t num_hashes,
                  util::HashFamily family);

  /// Writes to `out`, in order, every candidate whose bits are all set in
  /// `words` (a filter of this family, or an AND of such filters); returns
  /// how many. Every candidate must be < n; `out` needs room for
  /// cands.size() entries.
  std::size_t filter(std::span<const std::uint64_t> words, std::span<const VertexId> cands,
                     VertexId* out) const noexcept {
    return kernels::bloom_member_compact(words.data(), pos_.data(), num_hashes_, cands, out);
  }

 private:
  std::vector<std::uint32_t> pos_;
  std::uint32_t num_hashes_;
};

/// Owning Bloom filter.
class BloomFilter {
 public:
  BloomFilter() = default;

  /// An all-zero filter of `bits` bits with `num_hashes` hash functions
  /// drawn from the family seeded by `seed`.
  BloomFilter(std::uint64_t bits, std::uint32_t num_hashes, std::uint64_t seed = 0);

  /// Insert one element.
  void insert(std::uint64_t x) noexcept;

  /// Insert a batch of elements (e.g. a vertex neighborhood).
  void insert(std::span<const VertexId> xs) noexcept;

  [[nodiscard]] bool contains(std::uint64_t x) const noexcept { return view().contains(x); }

  [[nodiscard]] std::uint64_t size_bits() const noexcept { return bits_.size_bits(); }
  [[nodiscard]] std::uint32_t num_hashes() const noexcept { return num_hashes_; }
  [[nodiscard]] std::uint64_t count_ones() const noexcept { return bits_.count_ones(); }

  /// Empirical false-positive probability for the current fill:
  /// p_f = (B_{X,1} / B_X)^b.
  [[nodiscard]] double false_positive_rate() const noexcept;

  [[nodiscard]] BloomFilterView view() const noexcept {
    return {bits_.words(), bits_.size_bits(), num_hashes_, family_};
  }

  [[nodiscard]] const util::BitVector& bits() const noexcept { return bits_; }

 private:
  util::BitVector bits_;
  std::uint32_t num_hashes_ = 1;
  util::HashFamily family_;
};

}  // namespace probgraph
