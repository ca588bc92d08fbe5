#include "cache/cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "dist/checkpoint.hpp"
#include "dist/job.hpp"
#include "dist/wire.hpp"
#include "tn/stem.hpp"

namespace ltns::cache {

namespace {

// Entry kinds tagged in the on-disk header. Values are on-disk ABI.
constexpr uint8_t kKindPlan = 1;
constexpr uint8_t kKindAmplitude = 2;
constexpr uint8_t kKindBatch = 3;

// Same shape as the journal's RecordHeader: a cache entry is one record.
struct EntryHeader {
  uint32_t magic;
  uint16_t version;
  uint8_t endian;
  uint8_t kind;
  uint64_t payload_len;
  uint32_t crc;
  uint32_t reserved;
};
static_assert(sizeof(EntryHeader) == 24, "cache entry header layout is on-disk ABI");

// A cache entry larger than this is corruption, not data (the biggest
// honest entry is a batch result: 2^24 amplitudes is 256 MiB).
constexpr uint64_t kMaxEntryPayload = uint64_t(1) << 30;

void mkdir_quiet(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    // A cache that cannot create its directory degrades to memory-only;
    // the first write will fail the same way and be counted there.
  }
}

void put_metrics(dist::ByteWriter& w, const core::SlicedMetrics& m) {
  w.put<double>(m.log2_num_subtasks);
  w.put<double>(m.log2_cost_per_subtask);
  w.put<double>(m.log2_total_cost);
  w.put<double>(m.log2_overhead);
  w.put<double>(m.max_log2size);
  w.put<double>(m.max_union_log2size);
}

core::SlicedMetrics get_metrics(dist::ByteReader& r) {
  core::SlicedMetrics m;
  m.log2_num_subtasks = r.get<double>();
  m.log2_cost_per_subtask = r.get<double>();
  m.log2_total_cost = r.get<double>();
  m.log2_overhead = r.get<double>();
  m.max_log2size = r.get<double>();
  m.max_union_log2size = r.get<double>();
  return m;
}

// Structural validity of a deserialized SSA path over `net`, checked
// BEFORE ContractionTree::build — build asserts on malformed paths, and a
// corrupt cache entry must downgrade to a miss, not abort the process.
bool ssa_path_fits(const tn::SsaPath& path, const tn::TensorNetwork& net, size_t num_slices) {
  const size_t leaves = path.leaf_vertices.size();
  if (int(leaves) != net.num_alive_vertices()) return false;
  if (leaves == 0) return false;
  std::vector<char> seen_vertex(size_t(net.num_vertices()), 0);
  for (tn::VertId v : path.leaf_vertices) {
    if (v < 0 || v >= net.num_vertices() || !net.vertex(v).alive) return false;
    if (seen_vertex[size_t(v)]++) return false;
  }
  if (path.steps.size() != leaves - 1) return false;
  std::vector<char> consumed(leaves + path.steps.size(), 0);
  for (size_t k = 0; k < path.steps.size(); ++k) {
    const auto [l, rr] = path.steps[k];
    const int limit = int(leaves + k);
    if (l < 0 || rr < 0 || l >= limit || rr >= limit || l == rr) return false;
    if (consumed[size_t(l)]++ || consumed[size_t(rr)]++) return false;
  }
  if (num_slices > size_t(net.num_edges())) return false;
  return true;
}

}  // namespace

std::string plan_key(const std::string& circuit_text, const std::string& open_qubits,
                     const core::PlanOptions& plan) {
  std::string id = "plan|" + circuit_text + '|' + open_qubits + '|' + core::plan_options_text(plan);
  return dist::fnv1a_hex(id);
}

std::string result_key(const std::string& circuit_text, const std::string& bits,
                       const std::string& open_qubits, const core::PlanOptions& plan, bool fused,
                       uint64_t ldm_elems) {
  std::string id = "result|" + circuit_text + '|' + bits + '|' + open_qubits + '|' +
                   core::plan_options_text(plan) + '|' + std::to_string(int(fused)) + '|' +
                   std::to_string(ldm_elems);
  return dist::fnv1a_hex(id);
}

std::string validate_cache_options(const CacheOptions& opt) {
  if (opt.read_only && opt.cache_dir.empty())
    return "--cache-readonly requires --cache-dir (the in-memory tiers are always writable)";
  if (!opt.cache_dir.empty() && !opt.any_enabled())
    return "--cache-dir with both caches disabled (--plan-cache=0 --result-cache=0) caches nothing";
  return {};
}

// --- TieredStore -----------------------------------------------------------

TieredStore::TieredStore(const CacheOptions& opt, uint8_t kind, std::string subdir,
                         size_t max_entries)
    : kind_(kind), max_entries_(max_entries), read_only_(opt.read_only) {
  if (!opt.cache_dir.empty() && max_entries > 0) {
    dir_ = opt.cache_dir + "/" + subdir;
    if (!read_only_) {
      mkdir_quiet(opt.cache_dir);
      mkdir_quiet(dir_);
    }
  }
}

std::string TieredStore::file_path(const std::string& key) const {
  return dir_ + "/" + key + ".bin";
}

bool TieredStore::get(const std::string& key, std::vector<uint8_t>* payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (max_entries_ == 0) return false;
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    *payload = it->second->second;
    ++stats_.memory_hits;
    return true;
  }
  if (!dir_.empty() && read_disk(key, payload)) {
    ++stats_.disk_hits;
    insert_memory(key, *payload);  // promote
    return true;
  }
  ++stats_.misses;
  return false;
}

void TieredStore::put(const std::string& key, std::vector<uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (max_entries_ == 0) return;
  ++stats_.insertions;
  if (!dir_.empty() && !read_only_) write_disk(key, payload);
  insert_memory(key, std::move(payload));
}

void TieredStore::insert_memory(const std::string& key, std::vector<uint8_t> payload) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    memory_bytes_ -= it->second->second.size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  memory_bytes_ += payload.size();
  lru_.emplace_front(key, std::move(payload));
  index_[key] = lru_.begin();
  while (lru_.size() > max_entries_) {
    memory_bytes_ -= lru_.back().second.size();
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

bool TieredStore::read_disk(const std::string& key, std::vector<uint8_t>* payload) {
  const std::string path = file_path(key);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;  // plain miss, not damage
  EntryHeader h;
  bool ok = std::fread(&h, sizeof(h), 1, f) == 1 && h.magic == kCacheMagic &&
            h.version == kCacheVersion && h.endian == dist::host_endian() && h.kind == kind_ &&
            h.payload_len <= kMaxEntryPayload;
  if (ok) {
    payload->resize(size_t(h.payload_len));
    ok = payload->empty() || std::fread(payload->data(), 1, payload->size(), f) == payload->size();
    if (ok) ok = dist::crc32_ieee(payload->data(), payload->size()) == h.crc;
  }
  std::fclose(f);
  if (!ok) {
    // Truncated or corrupt: drop it so the recomputed value can replace it
    // (a read-only replica leaves the file for the owner to repair).
    ++stats_.corrupt_dropped;
    if (!read_only_) ::unlink(path.c_str());
    payload->clear();
  }
  return ok;
}

void TieredStore::write_disk(const std::string& key, const std::vector<uint8_t>& payload) {
  // tmp+rename, like result.bin: readers never observe a half entry. No
  // fsync — every entry is recomputable, so durability is best-effort.
  const std::string path = file_path(key);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;  // cache write failure is never a run failure
  EntryHeader h{kCacheMagic, kCacheVersion, dist::host_endian(), kind_,
                uint64_t(payload.size()), dist::crc32_ieee(payload.data(), payload.size()), 0};
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1 &&
            (payload.empty() || std::fwrite(payload.data(), 1, payload.size(), f) == payload.size());
  ok = std::fclose(f) == 0 && ok;
  if (ok && std::rename(tmp.c_str(), path.c_str()) == 0)
    stats_.disk_bytes_written += sizeof(h) + payload.size();
  else
    ::unlink(tmp.c_str());
}

TierStats TieredStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TierStats s = stats_;
  s.memory_entries = lru_.size();
  s.memory_bytes = memory_bytes_;
  return s;
}

// --- Plan encoding ---------------------------------------------------------

std::vector<uint8_t> encode_plan(const core::Plan& plan) {
  dist::ByteWriter w;
  w.put<uint64_t>(plan.path.leaf_vertices.size());
  for (tn::VertId v : plan.path.leaf_vertices) w.put<int32_t>(int32_t(v));
  w.put<uint64_t>(plan.path.steps.size());
  for (const auto& [l, r] : plan.path.steps) {
    w.put<int32_t>(int32_t(l));
    w.put<int32_t>(int32_t(r));
  }
  const auto edges = plan.slices.to_vector();
  w.put<uint64_t>(edges.size());
  for (int e : edges) w.put<int32_t>(int32_t(e));
  put_metrics(w, plan.metrics);
  w.put_string(plan.path_method);
  return w.buffer();
}

bool decode_plan(const std::vector<uint8_t>& payload, const tn::TensorNetwork& net,
                 core::Plan* out) {
  // Deserialization and structural validation may fail even behind a good
  // CRC (foreign file, hash collision, network drift): treat every failure
  // as a miss and let the caller recompute — never abort, never return a
  // plan that does not fit `net`.
  try {
    dist::ByteReader r(payload);
    core::Plan plan;
    const auto nleaves = r.get<uint64_t>();
    if (nleaves > uint64_t(net.num_vertices())) return false;
    plan.path.leaf_vertices.reserve(size_t(nleaves));
    for (uint64_t i = 0; i < nleaves; ++i) plan.path.leaf_vertices.push_back(r.get<int32_t>());
    const auto nsteps = r.get<uint64_t>();
    if (nsteps > nleaves) return false;
    plan.path.steps.reserve(size_t(nsteps));
    for (uint64_t i = 0; i < nsteps; ++i) {
      int l = r.get<int32_t>();
      int rr = r.get<int32_t>();
      plan.path.steps.emplace_back(l, rr);
    }
    const auto nslices = r.get<uint64_t>();
    if (nslices > uint64_t(net.num_edges())) return false;
    std::vector<int> edges;
    edges.reserve(size_t(nslices));
    for (uint64_t i = 0; i < nslices; ++i) edges.push_back(r.get<int32_t>());
    plan.metrics = get_metrics(r);
    plan.path_method = r.get_string();

    if (!ssa_path_fits(plan.path, net, edges.size())) return false;
    std::vector<char> seen_edge(size_t(net.num_edges()), 0);
    for (int e : edges) {
      if (e < 0 || e >= net.num_edges() || !net.edge(e).alive) return false;
      if (seen_edge[size_t(e)]++) return false;
    }

    // Rebuild the derived structures over the caller's network — this is
    // the cheap, deterministic back half of make_plan; only src/path/ and
    // the slicers are skipped.
    plan.tree = std::make_shared<tn::ContractionTree>(tn::ContractionTree::build(net, plan.path));
    std::string why;
    if (!plan.tree->validate(&why)) return false;
    plan.stem = tn::extract_stem(*plan.tree);
    plan.slices = core::SliceSet(net);
    for (int e : edges) plan.slices.add(e);
    *out = std::move(plan);
    return true;
  } catch (const std::exception&) {
    return false;  // short payload / bad string length: corrupt entry
  }
}

// --- PlanCache -------------------------------------------------------------

PlanCache::PlanCache(const CacheOptions& opt)
    : store_(opt, kKindPlan, "plan", opt.plan_cache_entries) {}

void PlanCache::insert(const std::string& key, const core::Plan& plan) {
  if (!store_.enabled()) return;
  dist::ByteWriter w;
  w.put_string(key);  // self-identifying: guards collisions and copied files
  const auto blob = encode_plan(plan);
  w.put<uint64_t>(blob.size());
  w.put_bytes(blob.data(), blob.size());
  store_.put(key, w.buffer());
}

bool PlanCache::lookup(const std::string& key, const tn::TensorNetwork& net, core::Plan* out) {
  std::vector<uint8_t> payload;
  if (!store_.get(key, &payload)) return false;
  try {
    dist::ByteReader r(payload);
    if (r.get_string() != key) return false;
    const auto len = r.get<uint64_t>();
    if (len > kMaxEntryPayload) return false;
    std::vector<uint8_t> blob(size_t(len), uint8_t{0});
    r.get_bytes(blob.data(), blob.size());
    return decode_plan(blob, net, out);
  } catch (const std::exception&) {
    return false;  // short payload / bad string length: corrupt entry
  }
}

// --- ResultCache -----------------------------------------------------------

ResultCache::ResultCache(const CacheOptions& opt)
    : amps_(opt, kKindAmplitude, "result", opt.result_cache_entries),
      batches_(opt, kKindBatch, "batch", opt.result_cache_entries) {}

void ResultCache::insert_amplitude(const std::string& key, const AmplitudeEntry& e) {
  if (!amps_.enabled()) return;
  dist::ByteWriter w;
  w.put_string(key);
  w.put<double>(e.amplitude.real());
  w.put<double>(e.amplitude.imag());
  w.put<int32_t>(e.num_slices);
  put_metrics(w, e.slicing);
  w.put<uint64_t>(e.tasks_run);
  w.put<double>(e.wall_seconds);
  dist::put_run_telemetry(w, e.telemetry);
  amps_.put(key, w.buffer());
}

bool ResultCache::lookup_amplitude(const std::string& key, AmplitudeEntry* out) {
  std::vector<uint8_t> payload;
  if (!amps_.get(key, &payload)) return false;
  try {
    dist::ByteReader r(payload);
    if (r.get_string() != key) return false;
    AmplitudeEntry e;
    const double re = r.get<double>();
    const double im = r.get<double>();
    e.amplitude = {re, im};
    e.num_slices = r.get<int32_t>();
    e.slicing = get_metrics(r);
    e.tasks_run = r.get<uint64_t>();
    e.wall_seconds = r.get<double>();
    e.telemetry = dist::get_run_telemetry(r);
    *out = std::move(e);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void ResultCache::insert_batch(const std::string& key, const BatchEntry& e,
                               const std::string& scope) {
  if (!batches_.enabled()) return;
  dist::ByteWriter w;
  w.put_string(key);
  w.put<uint64_t>(e.amplitudes.size());
  for (const auto& a : e.amplitudes) {
    w.put<double>(a.real());
    w.put<double>(a.imag());
  }
  w.put<uint64_t>(e.open_qubits.size());
  for (int q : e.open_qubits) w.put<int32_t>(int32_t(q));
  put_metrics(w, e.slicing);
  dist::put_run_telemetry(w, e.telemetry);
  w.put<uint64_t>(e.base_bits.size());
  for (int b : e.base_bits) w.put<int32_t>(int32_t(b));
  batches_.put(key, w.buffer());
  if (!scope.empty()) index_batch(key, scope, e.base_bits, e.open_qubits);
}

bool ResultCache::lookup_batch(const std::string& key, BatchEntry* out, const std::string& scope) {
  std::vector<uint8_t> payload;
  if (!batches_.get(key, &payload)) return false;
  try {
    dist::ByteReader r(payload);
    if (r.get_string() != key) return false;
    BatchEntry e;
    const auto n = r.get<uint64_t>();
    if (n > (uint64_t(1) << 24)) return false;  // |open| is capped at 24
    e.amplitudes.reserve(size_t(n));
    for (uint64_t i = 0; i < n; ++i) {
      const double re = r.get<double>();
      const double im = r.get<double>();
      e.amplitudes.emplace_back(re, im);
    }
    const auto nq = r.get<uint64_t>();
    if (nq > 24) return false;
    e.open_qubits.reserve(size_t(nq));
    for (uint64_t i = 0; i < nq; ++i) e.open_qubits.push_back(r.get<int32_t>());
    e.slicing = get_metrics(r);
    e.telemetry = dist::get_run_telemetry(r);
    const auto nb = r.get<uint64_t>();
    if (nb > (uint64_t(1) << 20)) return false;
    e.base_bits.reserve(size_t(nb));
    for (uint64_t i = 0; i < nb; ++i) e.base_bits.push_back(r.get<int32_t>());
    if (!scope.empty()) index_batch(key, scope, e.base_bits, e.open_qubits);
    *out = std::move(e);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void ResultCache::index_batch(const std::string& key, const std::string& scope,
                              const std::vector<int>& base_bits,
                              const std::vector<int>& open_qubits) {
  if (base_bits.empty() || open_qubits.empty()) return;
  std::lock_guard<std::mutex> lock(index_mu_);
  for (auto& ie : batch_index_) {
    if (ie.key == key) return;  // already known
  }
  // Bounded FIFO, far above any realistic working set; newest kept.
  constexpr size_t kMaxIndexEntries = 4096;
  if (batch_index_.size() >= kMaxIndexEntries) batch_index_.erase(batch_index_.begin());
  batch_index_.push_back({key, scope, base_bits, open_qubits});
}

bool ResultCache::find_covering_batch(const std::string& scope, const std::vector<int>& bits,
                                      const std::vector<int>& open_qubits, BatchEntry* out) {
  if (scope.empty()) return false;
  std::vector<std::pair<std::string, bool>> candidates;  // key, proper superset?
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    // Newest first: a recently inserted batch is most likely still in the
    // LRU (and most likely what the caller just computed a sibling of).
    for (auto it = batch_index_.rbegin(); it != batch_index_.rend(); ++it) {
      const auto& ie = *it;
      if (ie.scope != scope || ie.base_bits.size() != bits.size()) continue;
      if (!std::includes(ie.open_qubits.begin(), ie.open_qubits.end(), open_qubits.begin(),
                         open_qubits.end()))
        continue;
      bool agree = true;
      for (size_t q = 0; q < bits.size() && agree; ++q) {
        if (std::binary_search(ie.open_qubits.begin(), ie.open_qubits.end(), int(q))) continue;
        agree = bits[q] == ie.base_bits[q];
      }
      if (agree) candidates.emplace_back(ie.key, ie.open_qubits != open_qubits);
    }
  }
  for (const auto& [key, proper] : candidates) {
    if (!lookup_batch(key, out)) continue;  // evicted since indexed: next
    if (proper) {
      std::lock_guard<std::mutex> lock(index_mu_);
      ++superset_hits_;
    }
    return true;
  }
  return false;
}

uint64_t ResultCache::superset_hits() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return superset_hits_;
}

TierStats ResultCache::stats() const {
  TierStats s = amps_.stats();
  const TierStats b = batches_.stats();
  s.memory_hits += b.memory_hits;
  s.disk_hits += b.disk_hits;
  s.misses += b.misses;
  s.evictions += b.evictions;
  s.insertions += b.insertions;
  s.corrupt_dropped += b.corrupt_dropped;
  s.disk_bytes_written += b.disk_bytes_written;
  s.memory_entries += b.memory_entries;
  s.memory_bytes += b.memory_bytes;
  return s;
}

}  // namespace ltns::cache
