#include "path/optimizer.hpp"

#include "path/community.hpp"
#include "path/greedy.hpp"
#include "path/local_tune.hpp"
#include "path/partition.hpp"

#include <atomic>

namespace ltns::path {

namespace {
std::atomic<uint64_t> g_find_path_calls{0};
}

uint64_t find_path_invocations() { return g_find_path_calls.load(std::memory_order_relaxed); }

PathResult find_path(const tn::TensorNetwork& net, const OptimizerOptions& opt) {
  g_find_path_calls.fetch_add(1, std::memory_order_relaxed);
  PathResult best;
  auto consider = [&](tn::SsaPath p, const char* family, int i) {
    auto tree = tn::ContractionTree::build(net, p);
    const int index = int(best.trials.size());
    const std::string method = std::string(family) + '#' + std::to_string(i);
    best.trials.push_back({p, tree.total_log2cost(), index, method});
    // Rank paths by cost; tie-break toward the smaller biggest tensor.
    bool better = best.best_trial < 0 || tree.total_log2cost() < best.log2cost - 1e-12 ||
                  (std::abs(tree.total_log2cost() - best.log2cost) <= 1e-12 &&
                   tree.max_log2size() < best.log2size);
    if (better) {
      best.path = std::move(p);
      best.log2cost = tree.total_log2cost();
      best.log2size = tree.max_log2size();
      best.method = method;
      best.best_trial = index;
    }
  };

  for (int i = 0; i < opt.greedy_trials; ++i) {
    GreedyOptions g;
    g.temperature = (i == 0 ? 0.0 : opt.temperature);
    g.seed = opt.seed + uint64_t(i) * 0x9e37;
    consider(greedy_path(net, g), "greedy", i);
  }
  for (int i = 0; i < opt.partition_trials; ++i) {
    PartitionOptions p;
    p.seed = opt.seed + 0x1234 + uint64_t(i) * 0x51ed;
    consider(partition_path(net, p), "partition", i);
  }
  for (int i = 0; i < opt.community_trials; ++i) {
    CommunityOptions c;
    c.seed = opt.seed + 0x777 + uint64_t(i) * 0xabcd;
    consider(community_path(net, c), "community", i);
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
