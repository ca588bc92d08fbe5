#include "exec/tensor.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

#include "util/rng.hpp"

namespace ltns::exec {

Tensor::Tensor(std::vector<int> ixs)
    : ixs_(std::move(ixs)), data_(size_t(1) << ixs_.size(), cfloat{0, 0}) {
  assert(ixs_.size() < 48);
}

Tensor::Tensor(std::vector<int> ixs, std::vector<cfloat> data)
    : ixs_(std::move(ixs)), data_(data.begin(), data.end()) {
  assert(data_.size() == size_t(1) << ixs_.size());
}

int Tensor::axis_of(int edge) const {
  for (int d = 0; d < rank(); ++d)
    if (ixs_[size_t(d)] == edge) return d;
  return -1;
}

cfloat Tensor::at(const std::vector<int>& bits) const {
  assert(int(bits.size()) == rank());
  size_t off = 0;
  for (int d = 0; d < rank(); ++d) off |= size_t(bits[size_t(d)]) << bit_of_axis(d);
  return data_[off];
}

void Tensor::set(const std::vector<int>& bits, cfloat v) {
  assert(int(bits.size()) == rank());
  size_t off = 0;
  for (int d = 0; d < rank(); ++d) off |= size_t(bits[size_t(d)]) << bit_of_axis(d);
  data_[off] = v;
}

Tensor Tensor::fixed(int edge, int bit) const {
  int d = axis_of(edge);
  assert(d >= 0 && (bit == 0 || bit == 1));
  std::vector<int> nixs = ixs_;
  nixs.erase(nixs.begin() + d);
  Tensor out(std::move(nixs));
  const int pos = bit_of_axis(d);  // bit position of the fixed axis
  const size_t block = size_t(1) << pos;
  const size_t nblocks = out.size() >> pos;
  // Axes above d keep relative order; copy contiguous runs of 2^pos.
  for (size_t hi = 0; hi < nblocks; ++hi) {
    size_t src = (hi << (pos + 1)) | (size_t(bit) << pos);
    std::memcpy(out.data_.data() + hi * block, data_.data() + src, block * sizeof(cfloat));
  }
  return out;
}

Tensor Tensor::fixed_all(const std::vector<int>& edges, uint64_t bits) const {
  Tensor cur = *this;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (cur.axis_of(edges[i]) < 0) continue;
    cur = cur.fixed(edges[i], int((bits >> i) & 1));
  }
  return cur;
}

double Tensor::norm2() const {
  double s = 0;
  for (const cfloat& v : data_) s += double(v.real()) * v.real() + double(v.imag()) * v.imag();
  return s;
}

Tensor random_tensor(std::vector<int> ixs, uint64_t seed) {
  Tensor t(std::move(ixs));
  Rng rng(seed);
  for (auto& v : t.data()) v = cfloat(float(rng.next_normal()), float(rng.next_normal()));
  return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  assert(a.ixs() == b.ixs());
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, double(std::abs(a.data()[i] - b.data()[i])));
  return m;
}

}  // namespace ltns::exec
