// MutableGraph lifecycle: snapshot publication and pinning, delta-aware
// storage views, compaction folding (fold_delta), generation-directory
// retirement, publish-hook ordering, and the stats surface.
#include "graph/mutable_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "bfs/reference_bfs.hpp"
#include "engine/bfs_program.hpp"
#include "graph/compaction.hpp"
#include "graph/csr.hpp"
#include "graph_fixtures.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

// Serial mirror of the mutation semantics: apply ops in order to a flat
// multiset of edges (remove kills every present copy of the pair).
EdgeList apply_ops_reference(const EdgeList& base,
                             std::span<const EdgeOp> ops) {
  std::vector<Edge> edges{base.edges().begin(), base.edges().end()};
  for (const EdgeOp& op : ops) {
    if (op.kind == EdgeOp::Kind::Insert) {
      edges.push_back(Edge{op.u, op.v});
    } else {
      const auto same_pair = [&](const Edge& e) {
        return (e.u == op.u && e.v == op.v) || (e.u == op.v && e.v == op.u);
      };
      edges.erase(std::remove_if(edges.begin(), edges.end(), same_pair),
                  edges.end());
    }
  }
  return EdgeList{base.vertex_count(), std::move(edges)};
}

std::vector<std::int32_t> bfs_levels(const GraphStorage& storage,
                                     Vertex root, ThreadPool& pool) {
  HybridBfsRunner runner{storage, NumaTopology{2, 1}, pool};
  return runner.run(root, BfsConfig{}).level;
}

std::vector<std::int32_t> reference_levels(const EdgeList& edges,
                                           Vertex root, ThreadPool& pool) {
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  return reference_bfs(full, root).level;
}

TEST(FoldDeltaTest, FoldsTombstonesAndInserts) {
  EdgeList base{6};
  base.add(0, 1);
  base.add(0, 1);  // multi-edge: folded out as a unit
  base.add(1, 2);
  base.add(3, 4);
  const std::vector<EdgeOp> ops{EdgeOp::remove(0, 1), EdgeOp::insert(2, 3),
                                EdgeOp::insert(2, 3)};
  const DeltaBuffer delta = DeltaBuffer::build(
      6, ops, [](Vertex u, Vertex w) -> std::int64_t {
        return ((u == 0 && w == 1) || (u == 1 && w == 0)) ? 2 : 0;
      });
  FoldStats stats;
  const EdgeList folded = fold_delta(base, delta, &stats);
  EXPECT_EQ(stats.base_edges, 4u);
  EXPECT_EQ(stats.dropped, 2u);    // both 0-1 copies
  EXPECT_EQ(stats.appended, 2u);   // two 2-3 inserts
  EXPECT_EQ(stats.folded_edges, 4u);
  EXPECT_EQ(folded.edge_count(), 4u);
  // Dropped pairs are gone, inserted multiplicity survives.
  std::size_t pair01 = 0, pair23 = 0;
  for (const Edge& e : folded.edges()) {
    const Vertex lo = std::min(e.u, e.v), hi = std::max(e.u, e.v);
    if (lo == 0 && hi == 1) ++pair01;
    if (lo == 2 && hi == 3) ++pair23;
  }
  EXPECT_EQ(pair01, 0u);
  EXPECT_EQ(pair23, 2u);
}

TEST(MutableGraphTest, ApplyPublishesDeltaSnapshotsSharingTheBase) {
  ThreadPool pool{2};
  MutableGraphConfig config;
  config.numa_nodes = 2;
  MutableGraph graph{fixtures::small_graph(), config, pool};

  const auto v0 = graph.snapshot();
  EXPECT_EQ(v0->version(), 0u);
  EXPECT_EQ(v0->base_id(), 0u);
  EXPECT_TRUE(v0->compacted());
  EXPECT_EQ(v0->delta(), nullptr);

  const std::vector<EdgeOp> batch{EdgeOp::insert(2, 5)};
  EXPECT_EQ(graph.apply(batch), 1u);
  const auto v1 = graph.snapshot();
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->base_id(), 0u);  // apply shares the base: no rebuild
  ASSERT_NE(v1->delta(), nullptr);
  EXPECT_FALSE(v1->compacted());

  // The pinned v0 still serves the pre-mutation view while v1 sees the
  // merged one: 5 and 6 become reachable from 0 only through 2-5.
  const auto l0 = bfs_levels(v0->storage(), 0, pool);
  const auto l1 = bfs_levels(v1->storage(), 0, pool);
  EXPECT_EQ(l0[5], -1);
  EXPECT_EQ(l0[6], -1);
  EXPECT_EQ(l1[5], 3);
  EXPECT_EQ(l1[6], 4);

  // Merged-view degree flows through the storage facade.
  EXPECT_EQ(v1->storage().degree(5), 2);
  EXPECT_EQ(v0->storage().degree(5), 1);
}

TEST(MutableGraphTest, CompactFoldsAndMatchesSerialReference) {
  ThreadPool pool{2};
  MutableGraphConfig config;
  config.numa_nodes = 2;
  const EdgeList base = fixtures::small_graph();
  MutableGraph graph{base, config, pool};

  std::vector<EdgeOp> ops{EdgeOp::insert(2, 5), EdgeOp::remove(0, 3),
                          EdgeOp::insert(4, 7)};
  graph.apply(ops);
  const auto merged = graph.snapshot();
  const std::uint64_t compacted_version = graph.compact();
  const auto compacted = graph.snapshot();
  EXPECT_EQ(compacted->version(), compacted_version);
  EXPECT_EQ(compacted->base_id(), 1u);
  EXPECT_TRUE(compacted->compacted());

  const EdgeList expected = apply_ops_reference(base, ops);
  const auto ref = reference_levels(expected, 0, pool);
  const auto before = bfs_levels(merged->storage(), 0, pool);
  const auto after = bfs_levels(compacted->storage(), 0, pool);
  for (Vertex v = 0; v < base.vertex_count(); ++v) {
    EXPECT_EQ(before[v], ref[v]) << "merged view v " << v;
    EXPECT_EQ(after[v], ref[v]) << "compacted view v " << v;
  }

  // Compacting again with nothing pending is a no-op.
  EXPECT_EQ(graph.compact(), compacted_version);

  const MutableGraphStats stats = graph.stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.pending_ops, 0u);
  EXPECT_EQ(stats.base_edges, expected.edge_count());
  EXPECT_EQ(stats.delta_inserts, 0u);
}

TEST(MutableGraphTest, PublishHookObservesEveryVersionInOrder) {
  ThreadPool pool{2};
  MutableGraphConfig config;
  config.numa_nodes = 2;
  MutableGraph graph{fixtures::small_graph(), config, pool};

  std::vector<std::uint64_t> versions;
  std::vector<bool> compacted_flags;
  graph.set_publish_hook(
      [&](const std::shared_ptr<const GraphSnapshot>& snap) {
        versions.push_back(snap->version());
        compacted_flags.push_back(snap->compacted());
      });

  const std::vector<EdgeOp> a{EdgeOp::insert(2, 5)};
  const std::vector<EdgeOp> b{EdgeOp::insert(0, 7)};
  graph.apply(a);
  graph.apply(b);
  graph.compact();
  graph.set_publish_hook({});
  graph.apply(a);  // hook cleared: not observed

  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0], 1u);
  EXPECT_EQ(versions[1], 2u);
  EXPECT_EQ(versions[2], 3u);
  EXPECT_FALSE(compacted_flags[0]);
  EXPECT_FALSE(compacted_flags[1]);
  EXPECT_TRUE(compacted_flags[2]);
}

TEST(MutableGraphTest, ExternalGenerationsRetireWithTheirLastSnapshot) {
  ThreadPool pool{2};
  testutil::ScopedTestDir scratch{"mutgen"};
  auto device = std::make_shared<NvmDevice>(DeviceProfile::dram());

  MutableGraphConfig config;
  config.forward = MutableForwardKind::kExternal;
  config.numa_nodes = 2;
  config.workdir = scratch.path();
  config.device = device;
  MutableGraph graph{fixtures::small_graph(), config, pool};

  const std::string gen0 = scratch.path() + "/gen0";
  const std::string gen1 = scratch.path() + "/gen1";
  ASSERT_TRUE(std::filesystem::exists(gen0));

  auto pinned = graph.snapshot();  // pins gen0 across the compaction
  const std::vector<EdgeOp> ops{EdgeOp::insert(2, 5)};
  graph.apply(ops);
  graph.compact();
  EXPECT_TRUE(std::filesystem::exists(gen1));
  // gen0 must survive while the pinned snapshot still reads it...
  EXPECT_TRUE(std::filesystem::exists(gen0));
  const auto levels = bfs_levels(pinned->storage(), 0, pool);
  EXPECT_EQ(levels[5], -1);  // still the pre-mutation view
  // ...and retire once the last reference drops.
  pinned.reset();
  EXPECT_FALSE(std::filesystem::exists(gen0));
  EXPECT_TRUE(std::filesystem::exists(gen1));

  // The compacted external generation serves the folded graph.
  const auto after = bfs_levels(graph.snapshot()->storage(), 0, pool);
  EXPECT_EQ(after[5], 3);
}

TEST(MutableGraphTest, RemoveKillsBaseMultiEdgesAsAUnit) {
  ThreadPool pool{2};
  EdgeList base{4};
  base.add(0, 1);
  base.add(0, 1);  // Kronecker-style multi-edge
  base.add(1, 2);
  MutableGraphConfig config;
  config.numa_nodes = 2;
  MutableGraph graph{base, config, pool};

  const std::vector<EdgeOp> ops{EdgeOp::remove(0, 1)};
  graph.apply(ops);
  const auto snap = graph.snapshot();
  EXPECT_EQ(snap->storage().degree(0), 0);
  const auto levels = bfs_levels(snap->storage(), 0, pool);
  EXPECT_EQ(levels[1], -1);
  EXPECT_EQ(levels[2], -1);
}

}  // namespace
}  // namespace sembfs
