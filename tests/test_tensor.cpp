#include "exec/tensor.hpp"

#include <gtest/gtest.h>

namespace ltns::exec {
namespace {

TEST(Tensor, ConstructionZeroInitialized) {
  Tensor t({10, 11, 12});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.size(), 8u);
  for (auto v : t.data()) EXPECT_EQ(v, cfloat(0, 0));
}

TEST(Tensor, ScalarTensor) {
  auto s = Tensor::scalar({2, -1});
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.data()[0], cfloat(2, -1));
}

TEST(Tensor, AxisLookup) {
  Tensor t({5, 9, 2});
  EXPECT_EQ(t.axis_of(5), 0);
  EXPECT_EQ(t.axis_of(9), 1);
  EXPECT_EQ(t.axis_of(2), 2);
  EXPECT_EQ(t.axis_of(77), -1);
  EXPECT_EQ(t.bit_of_axis(0), 2);  // first axis is slowest
  EXPECT_EQ(t.bit_of_axis(2), 0);
}

TEST(Tensor, AtSetRoundTrip) {
  Tensor t({1, 2});
  t.set({0, 1}, {3, 4});
  t.set({1, 0}, {5, 6});
  EXPECT_EQ(t.at({0, 1}), cfloat(3, 4));
  EXPECT_EQ(t.at({1, 0}), cfloat(5, 6));
  EXPECT_EQ(t.at({0, 0}), cfloat(0, 0));
  // Linear layout: axis0 slowest.
  EXPECT_EQ(t.data()[1], cfloat(3, 4));
  EXPECT_EQ(t.data()[2], cfloat(5, 6));
}

TEST(Tensor, FixedSelectsHyperplane) {
  Tensor t({7, 8, 9});
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b)
      for (int c = 0; c < 2; ++c) t.set({a, b, c}, cfloat(float(a * 4 + b * 2 + c), 0));
  auto f0 = t.fixed(8, 1);  // fix middle axis to 1
  EXPECT_EQ(f0.rank(), 2);
  EXPECT_EQ(f0.ixs(), (std::vector<int>{7, 9}));
  for (int a = 0; a < 2; ++a)
    for (int c = 0; c < 2; ++c) EXPECT_EQ(f0.at({a, c}), t.at({a, 1, c}));
}

TEST(Tensor, FixedFirstAndLastAxes) {
  auto t = random_tensor({1, 2, 3, 4}, 99);
  auto first = t.fixed(1, 1);
  auto last = t.fixed(4, 0);
  for (int b = 0; b < 2; ++b)
    for (int c = 0; c < 2; ++c)
      for (int d = 0; d < 2; ++d) {
        EXPECT_EQ(first.at({b, c, d}), t.at({1, b, c, d}));
      }
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b)
      for (int c = 0; c < 2; ++c) EXPECT_EQ(last.at({a, b, c}), t.at({a, b, c, 0}));
}

TEST(Tensor, FixedAllMultipleEdges) {
  auto t = random_tensor({1, 2, 3}, 5);
  // Fix edge 3 -> bit0 of assignment, edge 1 -> bit1 (order of the vector).
  auto f = t.fixed_all({3, 1}, 0b01);  // 3 := 1, 1 := 0
  EXPECT_EQ(f.rank(), 1);
  EXPECT_EQ(f.ixs(), (std::vector<int>{2}));
  for (int b = 0; b < 2; ++b) EXPECT_EQ(f.at({b}), t.at({0, b, 1}));
}

TEST(Tensor, FixedAllIgnoresAbsentEdges) {
  auto t = random_tensor({1, 2}, 6);
  auto f = t.fixed_all({42, 2}, 0b10);  // 42 absent, 2 := 1
  EXPECT_EQ(f.rank(), 1);
  for (int a = 0; a < 2; ++a) EXPECT_EQ(f.at({a}), t.at({a, 1}));
}

TEST(Tensor, SliceSumRecomposes) {
  // Summing a tensor's two slices along an axis == contracting that axis
  // with the all-ones vector; here just check both slices partition data.
  auto t = random_tensor({4, 5, 6}, 11);
  auto s0 = t.fixed(5, 0);
  auto s1 = t.fixed(5, 1);
  double total = 0;
  for (size_t i = 0; i < s0.size(); ++i)
    total += std::abs(s0.data()[i]) + std::abs(s1.data()[i]);
  double direct = 0;
  for (auto v : t.data()) direct += std::abs(v);
  EXPECT_NEAR(total, direct, 1e-3);
}

TEST(Tensor, Norm2) {
  Tensor t({1});
  t.set({0}, {3, 0});
  t.set({1}, {0, 4});
  EXPECT_DOUBLE_EQ(t.norm2(), 25.0);
}

TEST(Tensor, RandomTensorDeterministic) {
  auto a = random_tensor({1, 2}, 7);
  auto b = random_tensor({1, 2}, 7);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

TEST(Tensor, DropReleasesMemory) {
  auto t = random_tensor({1, 2, 3}, 8);
  t.drop();
  EXPECT_EQ(t.data().size(), 0u);
}

}  // namespace
}  // namespace ltns::exec
