// Tensor permutation kernels (§5.1, §5.3.1).
//
// Permutations sit before every fused contraction step and are one of the
// hot spots of the TTGT pipeline. Three strategies, mirroring the paper's
// discussion:
//   * naive      — in-situ index computation per element, O(N·rank) time,
//                  O(1) extra space;
//   * mapped     — a pre-computed map (O(N) space) applied as a gather,
//                  amortized across repeated applications;
//   * reduced    — the paper's recursion-formula map reduction: when the
//                  last m axes are unpermuted, elements move in contiguous
//                  blocks of 2^m, the map shrinks to N / 2^m entries and the
//                  inner copy is a memcpy (map[i+k] = map[i] + k·offset is
//                  the same observation applied to leading unpermuted axes).
#pragma once

#include <cstdint>
#include <vector>

#include "exec/tensor.hpp"

namespace ltns::exec {

struct PermuteStats {
  size_t elements = 0;
  size_t map_entries = 0;   // size of the map actually materialized
  size_t block_elems = 1;   // contiguous copy granularity
};

// out axis j takes in axis perm[j]; returns the permutation, or throws
// std::invalid_argument if to_ixs is not a permutation of from_ixs.
std::vector<int> permutation_between(const std::vector<int>& from_ixs,
                                     const std::vector<int>& to_ixs);

// Reference implementation (naive).
Tensor permute_naive(const Tensor& t, const std::vector<int>& new_ixs);

// Reusable pre-computed map with §5.3.1 block reduction. Out axis j takes
// in axis perm[j] of a rank-`rank` input. `perm` may name only a subset of
// the in axes: the absent ones are held at bit 0, so apply(in + base, out)
// gathers the sub-tensor at any fixed offset `base` (the fused executor's
// strided DMA-get). Built in O(map entries) by the recursion
// map[o] = map[o & (o-1)] + stride[ctz(o)].
class PermuteMap {
 public:
  PermuteMap(const std::vector<int>& perm, int rank);

  int rank() const { return rank_; }  // of the input
  size_t map_entries() const { return map_.size(); }
  size_t block_elems() const { return size_t(1) << block_axes_; }
  int block_axes() const { return block_axes_; }
  // Raw map (out block index -> in element offset) for the vectorized
  // gather/blocked-copy apply in simd_kernels.
  const uint32_t* map_data() const { return map_.data(); }

  // out must have map_entries() * block_elems() elements.
  void apply(const cfloat* in, cfloat* out) const;

 private:
  int rank_;
  int block_axes_;            // trailing unpermuted axes, moved as one block
  std::vector<uint32_t> map_; // out block index -> in element offset
};

// Fast path used by the contraction planner: builds (or reuses) the map and
// applies it. Identity permutations are returned as plain copies.
Tensor permute(const Tensor& t, const std::vector<int>& new_ixs, PermuteStats* stats = nullptr);

}  // namespace ltns::exec
