#include "exec/permute.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace ltns::exec {

std::vector<int> permutation_between(const std::vector<int>& from_ixs,
                                     const std::vector<int>& to_ixs) {
  if (from_ixs.size() != to_ixs.size())
    throw std::invalid_argument("permute: target layout is not a permutation of the axes");
  std::vector<int> perm(to_ixs.size());
  for (size_t j = 0; j < to_ixs.size(); ++j) {
    int found = -1;
    for (size_t d = 0; d < from_ixs.size(); ++d)
      if (from_ixs[d] == to_ixs[j]) {
        found = int(d);
        break;
      }
    if (found < 0)
      throw std::invalid_argument("permute: target layout is not a permutation of the axes");
    perm[j] = found;
  }
  return perm;
}

Tensor permute_naive(const Tensor& t, const std::vector<int>& new_ixs) {
  auto perm = permutation_between(t.ixs(), new_ixs);
  const int r = t.rank();
  Tensor out(new_ixs);
  // srcpos[p] = bit position in the input of the axis feeding output bit p.
  std::vector<int> srcpos(static_cast<size_t>(r), 0);
  for (int j = 0; j < r; ++j) srcpos[size_t(r - 1 - j)] = r - 1 - perm[size_t(j)];
  const size_t n = t.size();
  for (size_t o = 0; o < n; ++o) {
    size_t in = 0;
    for (int p = 0; p < r; ++p) in |= ((o >> p) & 1) << srcpos[size_t(p)];
    out.data()[o] = t.data()[in];
  }
  return out;
}

PermuteMap::PermuteMap(const std::vector<int>& perm, int rank) : rank_(rank) {
  // Offsets are uint32_t, and the x86 gathers read them as signed int32.
  if (rank > 31)
    throw std::invalid_argument("PermuteMap: rank " + std::to_string(rank) +
                                " exceeds 31, the widest input a 32-bit offset map can address");
  // Trailing out axes that sit at the input's tail move as one contiguous
  // block — this is the §5.3.1 reduction: the map only addresses the
  // leading axes.
  const int out_rank = int(perm.size());
  int m = 0;
  while (m < out_rank && perm[size_t(out_rank - 1 - m)] == rank - 1 - m) ++m;
  block_axes_ = m;
  const int lead = out_rank - m;
  // In-element stride of each *leading* out bit p (block bits excluded).
  std::vector<uint32_t> stride(static_cast<size_t>(lead), 0);
  for (int p = 0; p < lead; ++p)
    stride[size_t(p)] = uint32_t(1) << (rank - 1 - perm[size_t(lead - 1 - p)]);
  map_.resize(size_t(1) << lead);
  map_[0] = 0;
  for (size_t o = 1; o < map_.size(); ++o)
    map_[o] = map_[o & (o - 1)] + stride[size_t(__builtin_ctzll(o))];
}

void PermuteMap::apply(const cfloat* in, cfloat* out) const {
  const size_t block = block_elems();
  if (block == 1) {
    for (size_t o = 0; o < map_.size(); ++o) out[o] = in[map_[o]];
    return;
  }
  for (size_t o = 0; o < map_.size(); ++o)
    std::memcpy(out + o * block, in + map_[o], block * sizeof(cfloat));
}

Tensor permute(const Tensor& t, const std::vector<int>& new_ixs, PermuteStats* stats) {
  if (t.ixs() == new_ixs) {
    if (stats) {
      stats->elements = t.size();
      stats->map_entries = 0;
      stats->block_elems = t.size();
    }
    return t;
  }
  auto perm = permutation_between(t.ixs(), new_ixs);
  PermuteMap map(perm, t.rank());
  Tensor out(new_ixs);
  map.apply(t.raw(), out.raw());
  if (stats) {
    stats->elements = t.size();
    stats->map_entries = map.map_entries();
    stats->block_elems = map.block_elems();
  }
  return out;
}

}  // namespace ltns::exec
