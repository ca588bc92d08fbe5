#include "exec/fused_executor.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <stdexcept>
#include <string>

#include "device/backend.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ltns::exec {

void DmaStats::record_get(double bytes, double granularity) {
  bytes_get += bytes;
  if (granularity > 0) transfers_get += bytes / granularity;
  min_granularity = std::min(min_granularity, granularity);
  granularity_weight += bytes * granularity;
}

void DmaStats::record_put(double bytes, double granularity) {
  bytes_put += bytes;
  if (granularity > 0) transfers_put += bytes / granularity;
  min_granularity = std::min(min_granularity, granularity);
  granularity_weight += bytes * granularity;
}

void DmaStats::merge(const DmaStats& o) {
  bytes_get += o.bytes_get;
  bytes_put += o.bytes_put;
  rma_bytes += o.rma_bytes;
  transfers_get += o.transfers_get;
  transfers_put += o.transfers_put;
  min_granularity = std::min(min_granularity, o.min_granularity);
  granularity_weight += o.granularity_weight;
}

int FusedPlan::fused_steps() const {
  int c = 0;
  for (const auto& w : windows)
    if (w.in_ldm) c += w.end_step - w.begin_step;
  return c;
}

double FusedPlan::average_fused_length() const {
  int steps = 0, wins = 0;
  for (const auto& w : windows)
    if (w.in_ldm) {
      steps += w.end_step - w.begin_step;
      ++wins;
    }
  return wins ? double(steps) / wins : 0.0;
}

namespace {

constexpr double kBytesPerElem = sizeof(cfloat);  // 8

// Index set of a tree node with process-sliced edges removed.
IndexSet unsliced_ixs(const tn::ContractionTree& tree, int node, const IndexSet& sliced) {
  IndexSet s = tree.node(node).ixs;
  s -= sliced;
  return s;
}

// Axis order of every node's tensor at run time, from the tree alone: a
// leaf keeps its vertex's incidence order minus the process-sliced axes
// (Tensor::fixed_all), and each contraction lays out keep_a + keep_b.
// build() creates children first, so index order is a postorder.
std::vector<std::vector<int>> node_layouts(const tn::ContractionTree& tree,
                                           const IndexSet& sliced) {
  std::vector<std::vector<int>> lay(size_t(tree.num_nodes()));
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const auto& n = tree.node(id);
    if (n.is_leaf()) {
      for (int e : tree.network()->vertex(n.leaf_vertex).edges)
        if (!sliced.contains(e)) lay[size_t(id)].push_back(e);
    } else {
      lay[size_t(id)] = plan_contract(lay[size_t(n.left)], lay[size_t(n.right)]).out_ixs;
    }
  }
  return lay;
}

// Walks the stem layouts through the planned windows and compiles each
// in-LDM window: secondary axes, the gather map and the step program.
void compile_windows(FusedPlan& plan, const IndexSet& sliced) {
  const tn::Stem& stem = *plan.stem;
  const auto lay = node_layouts(*stem.tree, sliced);
  std::vector<int> T = lay[size_t(stem.nodes[0])];
  for (auto& win : plan.windows) {
    win.t_ixs = T;
    if (!win.in_ldm) {
      T = plan_contract(T, lay[size_t(stem.branches[size_t(win.begin_step)])]).out_ixs;
      continue;
    }
    std::vector<std::vector<int>> branch_ixs;
    IndexSet touched(stem.tree->network()->num_edges());
    for (int k = win.begin_step; k < win.end_step; ++k) {
      branch_ixs.push_back(lay[size_t(stem.branches[size_t(k)])]);
      for (int e : branch_ixs.back()) touched.insert(e);
    }
    std::vector<int> kept, kept_axes;
    const int r = int(T.size());
    for (int d = 0; d < r; ++d) {
      if (touched.contains(T[size_t(d)])) {
        kept.push_back(T[size_t(d)]);
        kept_axes.push_back(d);
      } else {
        win.secondary.push_back(T[size_t(d)]);
        win.secondary_strides.push_back(size_t(1) << (r - 1 - d));
      }
    }
    win.gather = PermuteMap(kept_axes, r);
    win.program = compile_stem_program(kept, branch_ixs);
    T = win.secondary;
    T.insert(T.end(), win.program.out_ixs.begin(), win.program.out_ixs.end());
  }
}

}  // namespace

FusedPlan plan_fused(const tn::Stem& stem, const std::vector<int>& process_sliced,
                     size_t ldm_elems, bool cooperative_dma) {
  const tn::ContractionTree& tree = *stem.tree;
  FusedPlan plan;
  plan.stem = &stem;
  plan.process_sliced = process_sliced;
  plan.ldm_elems = ldm_elems;
  plan.cooperative_dma = cooperative_dma;

  IndexSet S(tree.network()->num_edges());
  for (int e : process_sliced) S.insert(e);

  const int n_steps = stem.length() - 1;
  int i = 0;
  while (i < n_steps) {
    IndexSet T = unsliced_ixs(tree, stem.nodes[size_t(i)], S);
    // Union of branch indices over the candidate window; K_T = T ∩ that.
    IndexSet touched(tree.network()->num_edges());
    FusedWindow win;
    win.begin_step = i;
    int j = i;
    while (j < n_steps) {
      IndexSet touched2 = touched | unsliced_ixs(tree, stem.branches[size_t(j)], S);
      // Walk the window's working sets; every step's live w + branch +
      // result must fit. This only picks the boundaries: the LDM figure
      // reported and checked at run time is the compiled program's.
      IndexSet w = T & touched2;
      bool fits = true;
      for (int k = win.begin_step; k <= j && fits; ++k) {
        IndexSet bk = unsliced_ixs(tree, stem.branches[size_t(k)], S);
        IndexSet wn = w ^ bk;
        fits = (size_t(1) << w.count()) + (size_t(1) << bk.count()) +
                   (size_t(1) << wn.count()) <=
               ldm_elems;
        w = wn;
      }
      if (!fits) break;
      touched = touched2;
      ++j;
    }
    // Not even one step fits: main-memory fallback for this step.
    win.in_ldm = j > i;
    win.end_step = win.in_ldm ? j : i + 1;
    plan.windows.push_back(win);
    i = win.end_step;
  }
  compile_windows(plan, S);
  return plan;
}

namespace {

struct WindowExec {
  const FusedPlan& plan;
  ThreadPool* pool;
  FusedStats* stats;
  device::DeviceBackend& backend;

  // Executes compiled window `win` on current stem tensor `T` (already
  // checked against win.t_ixs) with pre-contracted branch tensors; returns
  // the new stem tensor: secondary axes leading (so each subtask's DMA-put
  // is one contiguous block), then the program's output layout.
  Tensor run(const FusedWindow& win, const Tensor& T, const std::vector<Tensor>& branches) {
    const StemProgram& prog = win.program;
    const size_t n_steps = prog.steps.size();
    assert(prog.peak_elems <= plan.ldm_elems && "compiled window exceeds LDM");

    // Each branch into its step's b_order, once per process subtask.
    ExecStats bstats;
    std::vector<Tensor> ordered(n_steps);
    std::vector<const cfloat*> bptr(n_steps);
    for (size_t i = 0; i < n_steps; ++i) {
      const Tensor& b = branches[size_t(win.begin_step) + i];
      bptr[i] = b.raw();
      if (b.ixs() == prog.steps[i].b_order) continue;
      ScopedSeconds t(&bstats.permute_seconds);
      obs::TraceScope tr(obs::EventKind::kPermute, b.size());
      ordered[i] = backend.permute(b, prog.steps[i].b_order, &bstats.device);
      bstats.permute_elems += double(b.size());
      bptr[i] = ordered[i].raw();
    }

    std::vector<int> out_ixs = win.secondary;
    out_ixs.insert(out_ixs.end(), prog.out_ixs.begin(), prog.out_ixs.end());
    Tensor out(out_ixs);
    const size_t ns = win.secondary.size();
    const size_t w_elems = size_t(1) << prog.in_ixs.size();
    const size_t out_elems = size_t(1) << prog.out_ixs.size();
    const size_t get_block = win.gather.block_elems();
    std::mutex merge_mu;

    // Subtasks [b0, b1) on one CPE: gather -> program -> block put, in two
    // scratch buffers reused across the range.
    auto run_range = [&](size_t b0, size_t b1) {
      ExecStats es;
      DmaStats ds;
      AlignedCfloatVec w(prog.scratch_elems), tmp(prog.scratch_elems);
      for (size_t blk = b0; blk < b1; ++blk) {
        size_t base = 0;
        for (size_t i = 0; i < ns; ++i)
          if ((blk >> (ns - 1 - i)) & 1) base += win.secondary_strides[i];
        ScopedSeconds tmem(&es.memory_seconds);
        win.gather.apply(T.raw() + base, w.data());
        tmem.close();
        double g = double(get_block) * kBytesPerElem;
        const double moved = double(w_elems) * kBytesPerElem;
        if (plan.cooperative_dma && g < 512.0) {
          // §5.3.2: cooperative block load + RMA redistribution.
          ds.rma_bytes += moved;
          g = std::min(512.0, double(T.size()) * kBytesPerElem);
        }
        ds.record_get(moved, g);
        for (size_t i = 0; i < n_steps; ++i) {
          const double bytes = double(prog.steps[i].k) * prog.steps[i].n * kBytesPerElem;
          ds.record_get(bytes, bytes);
        }
        // The program's last GEMM writes the subtask's contiguous block of
        // `out` directly: the DMA-put / stacking step.
        ContractStats cs;
        backend.run_stem_window(prog, bptr.data(), w.data(), tmp.data(),
                                out.raw() + blk * out_elems, &cs, &es.device);
        es.flops += cs.flops;
        es.permute_elems += cs.permute_elems;
        es.gemm_seconds += cs.gemm_seconds;
        es.permute_seconds += cs.permute_seconds;
        ds.record_put(double(out_elems) * kBytesPerElem, double(out_elems) * kBytesPerElem);
      }
      if (stats) {
        std::lock_guard<std::mutex> lk(merge_mu);
        stats->exec.merge(es);
        stats->dma.merge(ds);
        stats->ldm_subtasks += b1 - b0;
        stats->ldm_peak_elems = std::max(stats->ldm_peak_elems, prog.peak_elems);
      }
    };

    const size_t n_sub = size_t(1) << ns;
    if (pool != nullptr)
      pool->parallel_for(n_sub, [&](int, size_t b0, size_t b1) { run_range(b0, b1); });
    else
      run_range(0, n_sub);
    if (stats) stats->exec.merge(bstats);
    return out;
  }
};

}  // namespace

void check_fused_leaves(const FusedPlan& plan, const LeafProvider& leaves) {
  const tn::ContractionTree& tree = *plan.stem->tree;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const auto& n = tree.node(id);
    if (n.is_leaf() && leaves(n.leaf_vertex).ixs() != tree.network()->vertex(n.leaf_vertex).edges)
      throw std::runtime_error("fused plan: leaf of vertex " + std::to_string(n.leaf_vertex) +
                               " is not in its vertex's incidence order");
  }
}

Tensor execute_fused(const FusedPlan& plan, const LeafProvider& leaves, uint64_t assignment,
                     ThreadPool* pool, FusedStats* stats, device::DeviceBackend* backend) {
  const tn::Stem& stem = *plan.stem;
  const tn::ContractionTree& tree = *stem.tree;

  // Pre-contract the branches and the bottom stem tensor.
  ExecStats branch_stats;
  std::vector<Tensor> branches(size_t(stem.length() - 1));
  for (int k = 0; k + 1 < stem.length(); ++k)
    branches[size_t(k)] = execute_subtree(tree, stem.branches[size_t(k)], leaves,
                                          plan.process_sliced, assignment, pool, &branch_stats,
                                          backend);
  Tensor cur = execute_subtree(tree, stem.nodes[0], leaves, plan.process_sliced, assignment,
                               pool, &branch_stats, backend);
  if (stats) stats->exec.merge(branch_stats);

  WindowExec we{plan, pool, stats, backend != nullptr ? *backend : device::host_backend()};
  for (const auto& win : plan.windows) {
    if (cur.ixs() != win.t_ixs)
      throw std::runtime_error("fused window at stem step " + std::to_string(win.begin_step) +
                               ": live stem tensor layout differs from the compiled one");
    if (win.in_ldm) {
      cur = we.run(win, cur, branches);
    } else {
      // Main-memory fallback step.
      ContractStats cs;
      const Tensor& b = branches[size_t(win.begin_step)];
      Tensor next =
          contract(cur, b, pool, &cs, backend, stats ? &stats->exec.device : nullptr);
      if (stats) {
        stats->exec.flops += cs.flops;
        stats->exec.permute_elems += cs.permute_elems;
        stats->exec.gemm_seconds += cs.gemm_seconds;
        stats->exec.permute_seconds += cs.permute_seconds;
        stats->dma.record_get(double(cur.size() + b.size()) * kBytesPerElem, 512.0);
        stats->dma.record_put(double(next.size()) * kBytesPerElem, 512.0);
      }
      cur = std::move(next);
    }
  }
  return cur;
}

Tensor execute_stem_stepwise(const tn::Stem& stem, const LeafProvider& leaves,
                             const std::vector<int>& process_sliced, uint64_t assignment,
                             ThreadPool* pool, FusedStats* stats,
                             device::DeviceBackend* backend) {
  const tn::ContractionTree& tree = *stem.tree;
  ExecStats branch_stats;
  std::vector<Tensor> branches(size_t(stem.length() - 1));
  for (int k = 0; k + 1 < stem.length(); ++k)
    branches[size_t(k)] = execute_subtree(tree, stem.branches[size_t(k)], leaves, process_sliced,
                                          assignment, pool, &branch_stats, backend);
  Tensor cur = execute_subtree(tree, stem.nodes[0], leaves, process_sliced, assignment, pool,
                               &branch_stats, backend);
  if (stats) stats->exec.merge(branch_stats);

  for (int k = 0; k + 1 < stem.length(); ++k) {
    const Tensor& b = branches[size_t(k)];
    ContractStats cs;
    Tensor next = contract(cur, b, pool, &cs, backend, stats ? &stats->exec.device : nullptr);
    if (stats) {
      stats->exec.flops += cs.flops;
      stats->exec.permute_elems += cs.permute_elems;
      stats->exec.gemm_seconds += cs.gemm_seconds;
      stats->exec.permute_seconds += cs.permute_seconds;
      // Every step round-trips the operands and result through main memory.
      stats->dma.record_get(double(cur.size() + b.size()) * kBytesPerElem, 512.0);
      stats->dma.record_put(double(next.size()) * kBytesPerElem, 512.0);
    }
    cur = std::move(next);
  }
  return cur;
}

}  // namespace ltns::exec
