// Concurrent mutation, compaction, and serving — the TSan targets for
// the mutable-graph layer. A writer thread publishes delta and compacted
// snapshots while reader/client threads traverse; every completed answer
// must be byte-exact for SOME published version (zero wrong results), and
// snapshot pinning must keep retired generations alive until their last
// reader drops. Reference level arrays are recorded by the writer BEFORE
// each publish, so a reader can never observe a version whose reference
// is missing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "bfs/reference_bfs.hpp"
#include "engine/bfs_program.hpp"
#include "graph/csr.hpp"
#include "graph/mutable_graph.hpp"
#include "graph_fixtures.hpp"
#include "nvm/device_profile.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

constexpr std::uint64_t kSeed = 0xc0ffee;

// Serial mirror of the tombstone semantics (remove kills every copy).
void apply_ops_to_mirror(std::vector<Edge>& mirror,
                         std::span<const EdgeOp> ops) {
  for (const EdgeOp& op : ops) {
    if (op.kind == EdgeOp::Kind::Insert) {
      mirror.push_back(Edge{op.u, op.v});
    } else {
      const auto same = [&](const Edge& e) {
        return (e.u == op.u && e.v == op.v) || (e.u == op.v && e.v == op.u);
      };
      mirror.erase(std::remove_if(mirror.begin(), mirror.end(), same),
                   mirror.end());
    }
  }
}

std::vector<EdgeOp> random_batch(std::mt19937_64& rng, Vertex n,
                                 const std::vector<Edge>& mirror) {
  std::uniform_int_distribution<Vertex> pick{0, n - 1};
  std::vector<EdgeOp> ops;
  for (int i = 0; i < 24; ++i) {
    const Vertex u = pick(rng);
    Vertex v = pick(rng);
    while (v == u) v = pick(rng);
    ops.push_back(EdgeOp::insert(u, v));
  }
  std::uniform_int_distribution<std::size_t> pick_edge{0, mirror.size() - 1};
  for (int i = 0; i < 8 && !mirror.empty(); ++i) {
    const Edge& e = mirror[pick_edge(rng)];
    if (e.u == e.v) continue;  // generators emit self-loops; ops reject them
    ops.push_back(EdgeOp::remove(e.u, e.v));
  }
  return ops;
}

// Reference levels, version log, and lookup — writer appends under the
// mutex before publishing; readers scan under the mutex.
class VersionLog {
 public:
  void record(std::uint64_t version, Vertex root,
              std::vector<std::int32_t> levels) {
    const std::lock_guard<std::mutex> lock{mutex_};
    refs_[{version, root}] = std::move(levels);
  }

  // Exact lookup for readers that know their pinned version.
  [[nodiscard]] std::vector<std::int32_t> expect(std::uint64_t version,
                                                 Vertex root) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = refs_.find({version, root});
    EXPECT_NE(it, refs_.end())
        << "no reference for version " << version << " root " << root;
    return it == refs_.end() ? std::vector<std::int32_t>{} : it->second;
  }

  // Membership lookup for clients that cannot see which version served
  // them: the answer must match SOME published version's reference.
  [[nodiscard]] bool matches_any(Vertex root,
                                 const std::vector<std::int32_t>& levels)
      const {
    const std::lock_guard<std::mutex> lock{mutex_};
    for (const auto& [key, ref] : refs_)
      if (key.second == root && ref == levels) return true;
    return false;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::uint64_t, Vertex>, std::vector<std::int32_t>>
      refs_;
};

std::vector<std::int32_t> reference_levels(const EdgeList& edges,
                                           Vertex root, ThreadPool& pool) {
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  return reference_bfs(full, root).level;
}

// Writer thread mutating + compacting while engine clients hammer
// submit(): every Done answer (cache hits included — this exercises the
// migration protocol under contention) must equal a published version's
// reference. Queries in flight across a publish complete on their pinned
// snapshot, so pre-publish answers are expected and valid.
TEST(MutationConcurrencyTest, ServedAnswersAlwaysMatchAPublishedVersion) {
  ThreadPool graph_pool{2};
  ThreadPool engine_pool{4};
  const EdgeList base =
      generate_kronecker(fixtures::small_kronecker(9, 8, kSeed), graph_pool);
  const Vertex n = base.vertex_count();
  const std::vector<Vertex> roots{1, 2};

  MutableGraphConfig config;
  config.numa_nodes = 2;
  MutableGraph graph{base, config, graph_pool};

  VersionLog log;
  std::vector<Edge> mirror{base.edges().begin(), base.edges().end()};
  {
    const EdgeList current{n, mirror};
    for (const Vertex root : roots)
      log.record(0, root, reference_levels(current, root, graph_pool));
  }

  serve::EngineConfig engine_config;
  engine_config.cache_bytes = 4 << 20;
  serve::QueryEngine engine{graph, NumaTopology{2, 1}, engine_pool,
                            engine_config};

  std::atomic<bool> writer_done{false};
  std::thread writer{[&] {
    ThreadPool ref_pool{2};
    std::mt19937_64 rng{kSeed};
    std::uint64_t version = 0;
    for (int round = 0; round < 6; ++round) {
      const std::vector<EdgeOp> ops = random_batch(rng, n, mirror);
      apply_ops_to_mirror(mirror, ops);
      const EdgeList next{n, mirror};
      for (const Vertex root : roots)
        log.record(version + 1, root,
                   reference_levels(next, root, ref_pool));
      ASSERT_EQ(graph.apply(ops), ++version);
      if (round == 2) {
        // Compaction republishes the same logical graph as version+1.
        for (const Vertex root : roots)
          log.record(version + 1, root, log.expect(version, root));
        ASSERT_EQ(graph.compact(), ++version);
      }
    }
    writer_done.store(true, std::memory_order_release);
  }};

  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> served{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng{kSeed + 100 + static_cast<std::uint64_t>(t)};
      while (!writer_done.load(std::memory_order_acquire)) {
        const Vertex root = roots[rng() % roots.size()];
        const serve::QueryRef query = engine.submit(root);
        query->wait();
        if (query->state() != serve::QueryState::Done) continue;
        ASSERT_TRUE(log.matches_any(root, query->result().level))
            << "root " << root << " served an answer matching no "
            << "published version (batched=" << query->result().batched
            << " cache_hit=" << query->result().cache_hit
            << " degraded=" << query->result().degraded
            << " visited=" << query->result().visited
            << " depth=" << query->result().depth << ")";
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  writer.join();
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(engine.stats().snapshots_published, 7u);
}

// Raw snapshot churn without the engine, on external-memory generations:
// readers pin snapshots and traverse them while the writer compacts the
// graph underneath, retiring generation directories. A pinned snapshot's
// answer must be exact for ITS version even after later compactions have
// deleted every other generation.
TEST(MutationConcurrencyTest, PinnedSnapshotsSurviveCompactionChurn) {
  ThreadPool graph_pool{2};
  const EdgeList base = generate_kronecker(
      fixtures::small_kronecker(8, 8, kSeed + 1), graph_pool);
  const Vertex n = base.vertex_count();
  constexpr Vertex kRoot = 1;

  testutil::ScopedTestDir scratch{"mutchurn"};
  MutableGraphConfig config;
  config.forward = MutableForwardKind::kExternal;
  config.numa_nodes = 2;
  config.workdir = scratch.path();
  config.device = std::make_shared<NvmDevice>(DeviceProfile::dram());
  MutableGraph graph{base, config, graph_pool};

  VersionLog log;
  std::vector<Edge> mirror{base.edges().begin(), base.edges().end()};
  log.record(0, kRoot,
             reference_levels(EdgeList{n, mirror}, kRoot, graph_pool));

  std::atomic<bool> writer_done{false};
  std::thread writer{[&] {
    ThreadPool ref_pool{2};
    std::mt19937_64 rng{kSeed + 2};
    std::uint64_t version = 0;
    for (int round = 0; round < 4; ++round) {
      const std::vector<EdgeOp> ops = random_batch(rng, n, mirror);
      apply_ops_to_mirror(mirror, ops);
      log.record(version + 1, kRoot,
                 reference_levels(EdgeList{n, mirror}, kRoot, ref_pool));
      ASSERT_EQ(graph.apply(ops), ++version);
      // Compact EVERY round so generation directories churn while the
      // readers still hold snapshots of earlier generations.
      log.record(version + 1, kRoot, log.expect(version, kRoot));
      ASSERT_EQ(graph.compact(), ++version);
    }
    writer_done.store(true, std::memory_order_release);
  }};

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> traversals{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      ThreadPool pool{1};
      do {
        const auto snap = graph.snapshot();
        const std::uint64_t version = snap->version();
        HybridBfsRunner runner{snap->storage(), NumaTopology{2, 1}, pool};
        const BfsResult result = runner.run(kRoot, BfsConfig{});
        const auto expected = log.expect(version, kRoot);
        ASSERT_EQ(result.level.size(), expected.size());
        for (Vertex v = 0; v < n; ++v)
          ASSERT_EQ(result.level[v], expected[v])
              << "version " << version << " v " << v;
        traversals.fetch_add(1, std::memory_order_relaxed);
      } while (!writer_done.load(std::memory_order_acquire));
    });
  }
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_GT(traversals.load(), 0u);
}

}  // namespace
}  // namespace sembfs
