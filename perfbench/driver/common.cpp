#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_set>

#include "util/prng.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_start = Clock::now();
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_start)
      .count();
}

void SpanLog::set_recording(bool on) {
  const std::lock_guard<std::mutex> lock{mutex_};
  recording_ = on;
}

std::int64_t SpanLog::add(std::string name, std::int64_t parent,
                          std::int64_t op, std::int64_t start_ns,
                          std::int64_t end_ns) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (!recording_) return 0;
  const std::int64_t id = next_id_++;
  spans_.push_back(Span{id, parent, op, std::move(name), start_ns, end_ns});
  return id;
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_;
}

void Report::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

void account_io(const sembfs::IoStatsSnapshot& before,
                const sembfs::IoStatsSnapshot& after, Report& report) {
  report.add("nvm.requests", static_cast<double>(after.requests - before.requests));
  report.add("nvm.bytes", static_cast<double>(after.bytes - before.bytes));
  report.add("nvm.sectors", static_cast<double>(after.sectors - before.sectors));
  report.add("nvm.busy_s", after.busy_seconds - before.busy_seconds);
  report.add("nvm.wait_s", after.wait_seconds - before.wait_seconds);
  report.add("nvm.queue_integral", after.queue_integral - before.queue_integral);
  report.add("nvm.elapsed_s", after.elapsed_seconds - before.elapsed_seconds);
  report.add("nvm.retries", static_cast<double>(after.retries - before.retries));
}

std::uint64_t rss_kib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0)
      return std::stoull(line.substr(6));
  }
  return 0;
}

void release_free_memory() { malloc_trim(0); }

EdgeOracle::EdgeOracle(const sembfs::EdgeList& edges,
                       sembfs::ThreadPool& pool) {
  sembfs::CsrBuildOptions options;
  options.sort_neighbors = true;
  csr_ = sembfs::build_csr(edges, options, pool);
}

bool EdgeOracle::has_edge(Vertex u, Vertex v) const {
  const std::span<const Vertex> adj = csr_.neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

int pass_count(const Args& args, double passes_per_second) {
  const auto passes = static_cast<int>(std::lround(args.seconds * passes_per_second));
  return std::max(args.trace ? 2 : 1, passes);
}

std::vector<Vertex> pick_roots(const EdgeOracle& oracle, int count,
                               std::uint64_t seed) {
  sembfs::Xoroshiro128 rng{sembfs::derive_seed(seed, 0x526f6f74)};
  const auto n = static_cast<std::uint64_t>(oracle.vertex_count());
  std::vector<Vertex> roots;
  std::unordered_set<Vertex> chosen;
  while (roots.size() < static_cast<std::size_t>(count)) {
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (oracle.degree(v) == 0 || !chosen.insert(v).second) continue;
    roots.push_back(v);
  }
  return roots;
}

namespace {

/// 64-bit FNV-1a over a level array.
std::uint64_t hash_levels(std::span<const std::int32_t> level) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int32_t l : level) {
    h ^= static_cast<std::uint32_t>(l);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void TreeMemory::remember(Vertex root, std::span<const std::int32_t> level,
                          std::span<const Vertex> parent) {
  Tree tree{hash_levels(level), std::vector<std::int32_t>(parent.size())};
  for (std::size_t v = 0; v < parent.size(); ++v)
    tree.parent[v] = static_cast<std::int32_t>(parent[v]);
  trees_.insert_or_assign(root, std::move(tree));
}

std::string TreeMemory::check_repeat(Vertex root,
                                     std::span<const std::int32_t> level,
                                     std::span<const Vertex> parent) const {
  const Tree& tree = trees_.at(root);
  if (level.size() != tree.parent.size() || parent.size() != tree.parent.size())
    return "array size mismatch";
  if (hash_levels(level) != tree.level_digest)
    return "levels differ from the validated traversal";
  const auto n = static_cast<Vertex>(tree.parent.size());
  for (Vertex v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    const Vertex p = parent[i];
    if (p == tree.parent[i]) continue;
    if (v == root || level[i] <= 0 || p < 0 || p >= n ||
        level[static_cast<std::size_t>(p)] != level[i] - 1)
      return "vertex " + std::to_string(v) + ": parent not one level up";
    if (!oracle_.has_edge(v, p))
      return "vertex " + std::to_string(v) + ": tree link is not an edge";
  }
  return {};
}

std::uint64_t TreeMemory::bytes() const {
  std::uint64_t total = 0;
  for (const auto& [root, tree] : trees_)
    total += tree.parent.size() * sizeof(std::int32_t);
  return total;
}

}  // namespace perfbench
