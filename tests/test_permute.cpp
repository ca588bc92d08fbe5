#include "exec/permute.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace ltns::exec {
namespace {

// Checks out[new order] == in element-by-element via at().
void expect_permutation_correct(const Tensor& in, const Tensor& out) {
  ASSERT_EQ(in.rank(), out.rank());
  const int r = in.rank();
  std::vector<int> bits(size_t(r), 0);
  for (size_t lin = 0; lin < in.size(); ++lin) {
    std::vector<int> in_bits(size_t(r), 0);
    for (int d = 0; d < r; ++d) in_bits[size_t(d)] = int((lin >> (r - 1 - d)) & 1);
    std::vector<int> out_bits(size_t(r), 0);
    for (int d = 0; d < r; ++d) {
      int edge = out.ixs()[size_t(d)];
      int src_axis = in.axis_of(edge);
      out_bits[size_t(d)] = in_bits[size_t(src_axis)];
    }
    EXPECT_EQ(out.at(out_bits), in.data()[lin]);
  }
  (void)bits;
}

TEST(PermutationBetween, ComputesCorrectMapping) {
  auto perm = permutation_between({4, 5, 6}, {6, 4, 5});
  EXPECT_EQ(perm, (std::vector<int>{2, 0, 1}));
}

TEST(PermuteNaive, SwapTwoAxes) {
  auto t = random_tensor({1, 2}, 3);
  auto p = permute_naive(t, {2, 1});
  expect_permutation_correct(t, p);
}

TEST(PermuteNaive, Rank3AllOrders) {
  auto t = random_tensor({7, 8, 9}, 4);
  std::vector<int> order{7, 8, 9};
  std::sort(order.begin(), order.end());
  do {
    auto p = permute_naive(t, order);
    expect_permutation_correct(t, p);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Permute, IdentityIsCopy) {
  auto t = random_tensor({1, 2, 3}, 5);
  PermuteStats st;
  auto p = permute(t, {1, 2, 3}, &st);
  EXPECT_EQ(max_abs_diff(t, p), 0.0);
  EXPECT_EQ(st.map_entries, 0u);
}

TEST(Permute, MatchesNaive) {
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    int r = 1 + int(rng.next_below(9));
    std::vector<int> ixs(size_t(r), 0);
    std::iota(ixs.begin(), ixs.end(), 100);
    auto t = random_tensor(ixs, uint64_t(trial));
    auto order = ixs;
    for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
    auto fast = permute(t, order);
    auto slow = permute_naive(t, order);
    EXPECT_EQ(max_abs_diff(fast, slow), 0.0) << "rank " << r << " trial " << trial;
  }
}

TEST(PermuteMap, ReductionShrinksMapWhenSuffixFixed) {
  // Permute only the first two of six axes: the map should cover 2^2
  // entries, blocks of 2^4 elements (the §5.3.1 reduction).
  std::vector<int> perm{1, 0, 2, 3, 4, 5};
  PermuteMap map(perm, 6);
  EXPECT_EQ(map.block_axes(), 4);
  EXPECT_EQ(map.map_entries(), 4u);
  EXPECT_EQ(map.block_elems(), 16u);
}

TEST(PermuteMap, FullPermutationUsesFullMap) {
  std::vector<int> perm{5, 4, 3, 2, 1, 0};
  PermuteMap map(perm, 6);
  EXPECT_EQ(map.block_axes(), 0);
  EXPECT_EQ(map.map_entries(), 64u);
}

TEST(PermuteMap, ApplyMatchesNaiveWithBlocks) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    int r = 3 + int(rng.next_below(8));
    int keep_tail = 1 + int(rng.next_below(uint64_t(r - 1)));
    std::vector<int> ixs(size_t(r), 0);
    std::iota(ixs.begin(), ixs.end(), 0);
    auto t = random_tensor(ixs, uint64_t(trial) + 100);
    // Shuffle only the leading axes, keep the tail in place.
    std::vector<int> order = ixs;
    for (size_t i = size_t(r - keep_tail); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    PermuteStats st;
    auto fast = permute(t, order, &st);
    auto slow = permute_naive(t, order);
    EXPECT_EQ(max_abs_diff(fast, slow), 0.0);
    if (order != ixs) EXPECT_GE(st.block_elems, size_t(1) << keep_tail);
  }
}

// The per-bit construction the O(N) recursion replaced: every map entry
// ORs in the source bit of each leading out bit.
std::vector<uint32_t> per_bit_map(const std::vector<int>& perm, int rank, int block_axes) {
  const int lead = int(perm.size()) - block_axes;
  std::vector<uint32_t> map(size_t(1) << lead);
  for (size_t o = 0; o < map.size(); ++o) {
    uint32_t in = 0;
    for (int p = 0; p < lead; ++p)
      in |= uint32_t((o >> p) & 1) << (rank - 1 - perm[size_t(lead - 1 - p)]);
    map[o] = in;
  }
  return map;
}

TEST(PermuteMap, RecursiveBuildMatchesPerBitReference) {
  Rng rng(47);
  for (int rank = 0; rank <= 20; ++rank) {
    for (int variant = 0; variant < 3; ++variant) {
      // variant 0: identity; 1: shuffle the leading axes only (a trailing
      // block); 2: shuffle everything.
      std::vector<int> perm(size_t(rank), 0);
      std::iota(perm.begin(), perm.end(), 0);
      const int keep_tail = variant == 1 && rank > 1 ? 1 + int(rng.next_below(uint64_t(rank - 1)))
                                                      : 0;
      if (variant > 0)
        for (size_t i = size_t(rank - keep_tail); i > 1; --i)
          std::swap(perm[i - 1], perm[rng.next_below(i)]);
      PermuteMap map(perm, rank);
      if (variant == 0) EXPECT_EQ(map.block_axes(), rank);
      if (variant == 1) EXPECT_GE(map.block_axes(), keep_tail);
      const auto want = per_bit_map(perm, rank, map.block_axes());
      ASSERT_EQ(map.map_entries(), want.size()) << "rank " << rank;
      EXPECT_TRUE(std::equal(want.begin(), want.end(), map.map_data()))
          << "rank " << rank << " variant " << variant;
    }
  }
}

TEST(PermuteMap, SubsetPermGathersLikeFixedAll) {
  // Naming only some in axes gathers the sub-tensor with the others held
  // at 0; offsetting the input selects any other fixed assignment. The
  // kept axes at the input's tail are the contiguous copy granularity.
  auto t = random_tensor({10, 11, 12, 13, 14, 15}, 77);
  PermuteMap map({0, 2, 3, 5}, 6);  // fixes axes 1 and 4 (edges 11, 14)
  EXPECT_EQ(map.block_elems(), 2u);
  for (uint64_t bits = 0; bits < 4; ++bits) {
    const size_t base = ((bits & 1) << (6 - 1 - 1)) | (((bits >> 1) & 1) << (6 - 1 - 4));
    Tensor got({10, 12, 13, 15});
    map.apply(t.raw() + base, got.raw());
    EXPECT_EQ(max_abs_diff(t.fixed_all({11, 14}, bits), got), 0.0) << bits;
  }
  EXPECT_EQ(PermuteMap({1, 2, 3}, 4).block_elems(), 8u);  // leading axis fixed
  EXPECT_EQ(PermuteMap({0, 1, 2}, 4).block_elems(), 1u);  // last axis fixed
}

TEST(PermutationBetween, ThrowsOnNonPermutation) {
  EXPECT_THROW(permutation_between({1, 2, 3}, {1, 2, 4}), std::invalid_argument);
  EXPECT_THROW(permutation_between({1, 2, 3}, {1, 2}), std::invalid_argument);
}

TEST(PermuteStats, ReportsElementCount) {
  auto t = random_tensor({0, 1, 2, 3}, 9);
  PermuteStats st;
  permute(t, {3, 2, 1, 0}, &st);
  EXPECT_EQ(st.elements, 16u);
}

TEST(Permute, DoublePermuteIsIdentity) {
  auto t = random_tensor({10, 20, 30, 40, 50}, 12);
  auto p = permute(t, {50, 30, 10, 40, 20});
  auto back = permute(p, {10, 20, 30, 40, 50});
  EXPECT_EQ(max_abs_diff(t, back), 0.0);
}

}  // namespace
}  // namespace ltns::exec
