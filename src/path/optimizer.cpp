#include "path/optimizer.hpp"

#include "path/greedy.hpp"
#include "path/local_tune.hpp"
#include "path/partition.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <system_error>
#include <thread>

namespace ltns::path {

namespace {
std::atomic<uint64_t> g_find_path_calls{0};

// One entry of the fixed trial list: its family, per-family number and seed.
struct TrialSpec {
  bool greedy;
  int i;
  uint64_t seed;
};

// What a thread leaves in a trial's slot for the fold.
struct TrialSlot {
  tn::SsaPath path;
  double log2cost = 0;
  double log2size = 0;
};

TrialSlot run_trial(const tn::TensorNetwork& net, const OptimizerOptions& opt,
                    const TrialSpec& s) {
  TrialSlot out;
  if (s.greedy) {
    GreedyOptions g;
    g.temperature = (s.i == 0 ? 0.0 : opt.temperature);
    g.seed = s.seed;
    out.path = greedy_path(net, g);
  } else {
    PartitionOptions p;
    p.seed = s.seed;
    out.path = partition_path(net, p);
  }
  auto tree = tn::ContractionTree::build(net, out.path);
  out.log2cost = tree.total_log2cost();
  out.log2size = tree.max_log2size();
  return out;
}

// Runs the trials on min(cores, trials) short-lived threads, the caller
// among them (alone, with one core or one trial). Each thread takes the
// next index from a shared counter (a partition trial costs several greedy
// ones, so a static split would idle threads) and writes only that index's
// slot. All threads are joined before this returns; the first exception
// any of them threw is rethrown here.
void run_trials(const tn::TensorNetwork& net, const OptimizerOptions& opt,
                const std::vector<TrialSpec>& specs, std::vector<TrialSlot>& slots) {
  const int n = int(specs.size());
  const int cores = int(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::max(1, std::min(n, cores));
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errs(static_cast<size_t>(threads));
  auto work = [&](int t) {
    try {
      for (int k; (k = next.fetch_add(1, std::memory_order_relaxed)) < n;)
        slots[size_t(k)] = run_trial(net, opt, specs[size_t(k)]);
    } catch (...) {
      errs[size_t(t)] = std::current_exception();
      next.store(n, std::memory_order_relaxed);  // the others stop early
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(size_t(threads - 1));
  for (int t = 1; t < threads; ++t) {
    try {
      pool.emplace_back(work, t);
    } catch (const std::system_error&) {
      break;  // out of threads: the ones running take the rest, same result
    }
  }
  work(0);
  for (auto& th : pool) th.join();
  for (auto& e : errs)
    if (e) std::rethrow_exception(e);
}
}  // namespace

uint64_t find_path_invocations() { return g_find_path_calls.load(std::memory_order_relaxed); }

PathResult find_path(const tn::TensorNetwork& net, const OptimizerOptions& opt) {
  g_find_path_calls.fetch_add(1, std::memory_order_relaxed);

  // The trial list is fixed by `opt` alone, never by the thread count.
  std::vector<TrialSpec> specs;
  for (int i = 0; i < opt.greedy_trials; ++i)
    specs.push_back({true, i, opt.seed + uint64_t(i) * 0x9e37});
  for (int i = 0; i < opt.partition_trials; ++i)
    specs.push_back({false, i, opt.seed + 0x1234 + uint64_t(i) * 0x51ed});

  std::vector<TrialSlot> slots(specs.size());
  run_trials(net, opt, specs, slots);

  // Fold in index order, so the result does not depend on which thread ran
  // which trial or when it finished.
  PathResult best;
  for (size_t k = 0; k < slots.size(); ++k) {
    TrialSlot& s = slots[k];
    const int index = int(k);
    const std::string method =
        std::string(specs[k].greedy ? "greedy" : "partition") + '#' + std::to_string(specs[k].i);
    best.trials.push_back({s.path, s.log2cost, index, method});
    // Rank paths by cost; tie-break toward the smaller biggest tensor.
    bool better = best.best_trial < 0 || s.log2cost < best.log2cost - 1e-12 ||
                  (std::abs(s.log2cost - best.log2cost) <= 1e-12 && s.log2size < best.log2size);
    if (better) {
      best.path = std::move(s.path);
      best.log2cost = s.log2cost;
      best.log2size = s.log2size;
      best.method = method;
      best.best_trial = index;
    }
  }

  if (opt.tune && best.best_trial >= 0) {
    auto tree = tn::ContractionTree::build(net, best.path);
    LocalTuneOptions lt{opt.tune_max_leaves, opt.tune_sweeps};
    auto tuned = local_tune(tree, lt);
    if (tuned.log2cost_after < best.log2cost) {
      best.path = std::move(tuned.path);
      best.log2cost = tuned.log2cost_after;
      best.log2size = tn::ContractionTree::build(net, best.path).max_log2size();
      best.method += "+tune";
    }
  }
  return best;
}

}  // namespace ltns::path
