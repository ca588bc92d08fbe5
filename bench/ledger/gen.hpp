// Seeded input generator for bench_ledger (see bench/ledger/README.md).
//
// Every circuit, bitstring, query file and job spec a workload uses is a
// pure function of (--seed, stream tag, index), so rerunning a seed replays
// a run exactly, and dump_input writes what a run consumed under
// <out>/inputs/. The library only ever sees these generated inputs.
//
// A workload's STRUCTURE is fixed: grid shape, depth, which qubits a query
// leaves open, the mix and order of query kinds, which job repeats which.
// The seed picks the VALUES: gate choices, output bits, sample seeds and
// Pauli letters. Lowering and planning are value-blind, so every seed runs
// the same plans and the spread between seeds measures the machine, not
// the draw.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "util/rng.hpp"

namespace ltns::ledger {

// Stream tags: each kind of input draws from its own sub-stream, so adding
// draws to one kind never shifts another.
enum class Stream : uint64_t { kCircuit = 1, kBits = 2, kQueries = 3, kJobs = 4, kWarmup = 5 };

inline uint64_t derive_seed(uint64_t seed, Stream tag, uint64_t index = 0) {
  Rng r(seed ^ (uint64_t(tag) * 0xd1b54a32d192ed03ull) ^ (index * 0x9e3779b97f4a7c15ull));
  return r.next_u64();
}

inline circuit::Circuit grid_circuit(int rows, int cols, int cycles, uint64_t seed) {
  circuit::RqcOptions o;
  o.cycles = cycles;
  o.seed = seed;
  return circuit::random_quantum_circuit(circuit::Device::grid(rows, cols), o);
}

inline circuit::Circuit sycamore_circuit(int cycles, uint64_t seed) {
  circuit::RqcOptions o;
  o.cycles = cycles;
  o.seed = seed;
  return circuit::random_quantum_circuit(circuit::Device::sycamore53(), o);
}

inline std::string bit_text(const std::vector<int>& bits) {
  std::string t;
  for (int b : bits) t += b != 0 ? '1' : '0';
  return t;
}

inline std::vector<int> random_bits(Rng& rng, int n) {
  std::vector<int> b(static_cast<size_t>(n));
  for (auto& x : b) x = int(rng.next_u64() & 1);
  return b;
}

// Bitstrings that never repeat within one stream: "distinct amplitudes"
// must stay distinct, or the result cache would answer them.
class BitStream {
 public:
  BitStream(int n, uint64_t seed) : n_(n), rng_(seed) {}
  std::vector<int> next() {
    if (n_ < 63 && seen_.size() >= (uint64_t(1) << n_))
      throw std::runtime_error("bit stream exhausted: every bitstring was drawn");
    for (;;) {
      auto b = random_bits(rng_, n_);
      if (seen_.insert(b).second) return b;
    }
  }

 private:
  int n_;
  Rng rng_;
  std::set<std::vector<int>> seen_;
};

// Which qubits each query kind leaves open. Disjoint sets, so two different
// kinds can never merge into one group, and the mix of plan signatures is
// the same for every seed.
struct QueryLayout {
  std::vector<int> batch_open;   // batch queries ('?' positions)
  std::vector<int> sample_open;  // the sample query
  std::vector<int> expect_a, expect_b;  // the two expectation supports
  int subset_open = 0;  // leading batch_open qubits a subset query keeps open
  int samples = 256;
};

inline QueryLayout query_layout(int num_qubits) {
  const bool wide = num_qubits >= 17;
  const int nb = wide ? 5 : 3, ns = wide ? 6 : 3, ne = wide ? 3 : 1;
  // Fixed (seed-independent) spread of the open sets over the grid.
  std::vector<int> order;
  for (int q = 0; q < num_qubits; q += 2) order.push_back(q);
  for (int q = 1; q < num_qubits; q += 2) order.push_back(q);
  QueryLayout l;
  size_t i = 0;
  auto take = [&](int k, std::vector<int>* out) {
    for (int j = 0; j < k; ++j) out->push_back(order[i++]);
    std::sort(out->begin(), out->end());
  };
  take(nb, &l.batch_open);
  take(ns, &l.sample_open);
  take(ne, &l.expect_a);
  take(ne, &l.expect_b);
  l.subset_open = wide ? 3 : 2;
  l.samples = wide ? 256 : 32;
  return l;
}

// One query file of the query workload, plus what the next round reads
// back: its fresh amplitudes (for repeats answered by the result cache) and
// its batch bases (for subsets answered by the covering-batch cache).
struct QueryRound {
  std::string text;
  std::vector<std::vector<int>> amps;
  std::vector<std::vector<int>> batch_bases;
};

inline std::string open_pattern(const std::vector<int>& base, const std::vector<int>& open) {
  std::string p = bit_text(base);
  for (int q : open) p[size_t(q)] = '?';
  return p;
}

// The warm-up round (prev == nullptr) holds 2 amps and 2 batches. A timed
// round holds 18 queries in a fixed order: 8 fresh amps, 2 amps repeated
// from the previous round (result-cache hits), 1 amp repeated within the
// round (deduplicated by the grouper), 2 batches on one open set (one
// planner pass, one plan rebuild), 2 subsets of the previous round's
// batches (covering-batch hits), 1 sample and 2 expectations.
inline QueryRound make_query_round(const QueryLayout& l, int n, BitStream& amps, Rng& rng,
                                   const QueryRound* prev) {
  QueryRound r;
  std::string& t = r.text;
  auto amp = [&] {
    r.amps.push_back(amps.next());
    t += "amp " + bit_text(r.amps.back()) + "\n";
  };
  auto batch = [&] {
    r.batch_bases.push_back(random_bits(rng, n));
    t += "batch " + open_pattern(r.batch_bases.back(), l.batch_open) + "\n";
  };
  if (prev == nullptr) {
    amp();
    batch();
    amp();
    batch();
    return r;
  }
  auto subset = [&](const std::vector<int>& base) {
    std::vector<int> b = base;
    for (size_t j = size_t(l.subset_open); j < l.batch_open.size(); ++j)
      b[size_t(l.batch_open[j])] = int(rng.next_u64() & 1);
    const std::vector<int> open(l.batch_open.begin(), l.batch_open.begin() + l.subset_open);
    t += "batch " + open_pattern(b, open) + "\n";
  };
  auto expect = [&](const std::vector<int>& support) {
    std::string paulis(size_t(n), 'I');
    for (int q : support) paulis[size_t(q)] = "XYZ"[rng.next_below(3)];
    t += "expect " + paulis + " " + bit_text(random_bits(rng, n)) + "\n";
  };
  amp();
  batch();
  amp();
  t += "amp " + bit_text(prev->amps[0]) + "\n";
  expect(l.expect_a);
  amp();
  subset(prev->batch_bases[0]);
  amp();
  t += "sample " + std::to_string(l.samples) + " " + std::to_string(rng.next_below(1u << 30)) +
       " " + open_pattern(random_bits(rng, n), l.sample_open) + "\n";
  amp();
  t += "amp " + bit_text(r.amps[1]) + "\n";
  batch();
  amp();
  expect(l.expect_b);
  t += "amp " + bit_text(prev->amps[1]) + "\n";
  amp();
  subset(prev->batch_bases[1]);
  amp();
  return r;
}

// Writes one input a run consumed to <out>/inputs/<name>.
inline void dump_input(const std::filesystem::path& out, const std::string& name,
                       const std::string& text) {
  const auto dir = out / "inputs";
  std::filesystem::create_directories(dir);
  std::ofstream f(dir / name);
  f << text;
  if (!f) throw std::runtime_error("cannot write input " + (dir / name).string());
}

}  // namespace ltns::ledger
