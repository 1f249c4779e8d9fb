#include "bfs/bottom_up.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bfs/reference_bfs.hpp"
#include "graph_fixtures.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

/// One bottom-up level computed serially from `status` before the step:
/// each unvisited vertex scans its list in storage order and stops at its
/// first frontier neighbor — the answer and the work the kernel must
/// reproduce exactly.
struct SerialLevel {
  std::int64_t claimed = 0;
  std::int64_t claimed_degrees = 0;
  std::int64_t scanned = 0;
  std::vector<Vertex> parent;  // kNoVertex where the level claims nothing
};

SerialLevel serial_first_hit(const BackwardGraph& backward,
                             const BfsStatus& status) {
  SerialLevel out;
  out.parent.assign(static_cast<std::size_t>(backward.vertex_count()),
                    kNoVertex);
  for (Vertex v = 0; v < backward.vertex_count(); ++v) {
    if (status.is_visited(v)) continue;
    const auto adj = backward.neighbors(v);
    std::size_t i = 0;
    while (i < adj.size() && !status.in_frontier(adj[i])) ++i;
    if (i == adj.size()) {
      out.scanned += static_cast<std::int64_t>(adj.size());
      continue;
    }
    out.scanned += static_cast<std::int64_t>(i + 1);
    out.parent[static_cast<std::size_t>(v)] = adj[i];
    ++out.claimed;
    out.claimed_degrees += static_cast<std::int64_t>(adj.size());
  }
  return out;
}

/// A 1000-vertex power-law graph: a SCALE-10 Kronecker graph cut to the
/// vertices below 1000. 64 does not divide 1000, so node and chunk
/// boundaries fall inside visited-bitmap words.
EdgeList thousand_vertex_graph(ThreadPool& pool) {
  const EdgeList kron =
      generate_kronecker(fixtures::small_kronecker(10, 8, 11), pool);
  EdgeList edges{1000};
  for (const Edge& e : kron.edges())
    if (e.u < 1000 && e.v < 1000) edges.add(e);
  return edges;
}

class BottomUpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = fixtures::small_graph();
    partition_ = VertexPartition{edges_.vertex_count(), 2};
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    hybrid_ = std::make_unique<HybridBackwardGraph>(backward_, 1, device_,
                                                    dir_.path());
  }

  /// Both backward storages: the DRAM graph and its first-1-edge split
  /// (the rest of every list on NVM). Every bottom-up test runs over each.
  [[nodiscard]] std::vector<std::pair<std::string, BackwardStorage>>
  sources() {
    return {{"dram", &backward_}, {"hybrid", hybrid_.get()}};
  }

  ThreadPool pool_{4};
  NumaTopology topology_{2, 2};
  testutil::ScopedTestDir dir_{"bottomup"};
  EdgeList edges_;
  VertexPartition partition_;
  BackwardGraph backward_;
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<HybridBackwardGraph> hybrid_;
};

TEST_F(BottomUpTest, ClaimsSameFrontierAsTopDownWould) {
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    const StepResult r =
        bottom_up_step(backward, status, 1, topology_, pool_, 2);
    EXPECT_EQ(r.claimed, 2);  // 1 and 3 find 0 in the frontier
    std::set<Vertex> next;
    status.next_frontier().for_each_set(
        [&](std::size_t v) { next.insert(static_cast<Vertex>(v)); });
    EXPECT_EQ(next, (std::set<Vertex>{1, 3}));
    EXPECT_EQ(status.parent(1), 0);
    EXPECT_EQ(status.parent(3), 0);
  }
}

TEST_F(BottomUpTest, ParentIsAlwaysFrontierMember) {
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    bottom_up_step(backward, status, 1, topology_, pool_, 2);
    status.advance(pool_);  // frontier = {1, 3}
    bottom_up_step(backward, status, 2, topology_, pool_, 2);
    EXPECT_TRUE(status.is_visited(2));
    EXPECT_TRUE(status.is_visited(4));
    EXPECT_EQ(status.parent(2), 1);
    EXPECT_TRUE(status.parent(4) == 1 || status.parent(4) == 3);
  }
}

TEST_F(BottomUpTest, EarlyExitScansNoMoreAfterHit) {
  // From a full frontier every unvisited vertex stops at its first
  // neighbor: scanned == number of unvisited-with-edges vertices... at most
  // scanned <= sum of degrees; with early exit it is strictly less for
  // vertices whose first neighbor is already in the frontier.
  ThreadPool pool{4};
  const EdgeList edges = fixtures::complete_graph(8);
  const VertexPartition partition{8, 2};
  const BackwardGraph backward_dram =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  HybridBackwardGraph hybrid{backward_dram, 1, device_, dir_.aux("_k8")};
  const NumaTopology topo{2, 2};
  for (const auto& [name, backward] :
       std::vector<std::pair<std::string, BackwardStorage>>{
           {"dram", &backward_dram}, {"hybrid", &hybrid}}) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    const StepResult r = bottom_up_step(backward, status, 1, topo, pool, 2);
    EXPECT_EQ(r.claimed, 7);
    // K8: every unvisited vertex stops at vertex 0; wherever 0 sits in each
    // adjacency list, total scanned stays within [7, 7*7].
    EXPECT_LE(r.scanned_edges, 49);
    EXPECT_GE(r.scanned_edges, 7);
  }
}

TEST_F(BottomUpTest, UnreachableComponentNeverClaimed) {
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    for (int level = 1; level <= 4; ++level) {
      bottom_up_step(backward, status, level, topology_, pool_, 2);
      status.advance(pool_);
    }
    EXPECT_EQ(status.parent(5), kNoVertex);
    EXPECT_EQ(status.parent(6), kNoVertex);
    EXPECT_EQ(status.parent(7), kNoVertex);
    EXPECT_EQ(status.visited_count(), 5);
  }
}

TEST_F(BottomUpTest, EmptyFrontierClaimsNothing) {
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    status.advance(pool_);  // frontier empty
    const StepResult r =
        bottom_up_step(backward, status, 1, topology_, pool_, 2);
    EXPECT_EQ(r.claimed, 0);
  }
}

TEST_F(BottomUpTest, BitmapOutputFrontierSupportsNextSweep) {
  // The next frontier a bottom-up level ORs into drives the following
  // level once advanced: in_frontier reads the bitmap directly.
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    bottom_up_step(backward, status, 1, topology_, pool_, 2);
    status.advance(pool_);
    EXPECT_EQ(status.frontier_size(), 2);  // {1, 3}
    EXPECT_EQ(status.frontier_bitmap().word(0), 0b1010u);
    bottom_up_step(backward, status, 2, topology_, pool_, 2);
    status.advance(pool_);
    EXPECT_TRUE(status.is_visited(2));
    EXPECT_TRUE(status.is_visited(4));
    EXPECT_EQ(status.parent(2), 1);
  }
}

TEST_F(BottomUpTest, HybridBitmapOutputMatchesDramQueue) {
  // Level by level, the hybrid graph's sweep leaves the same frontier
  // bitmap as the DRAM graph's.
  BfsStatus dram_status{8};
  BfsStatus hybrid_status{8};
  dram_status.reset(0);
  hybrid_status.reset(0);
  for (int level = 1; level <= 3; ++level) {
    bottom_up_step(&backward_, dram_status, level, topology_, pool_, 2);
    bottom_up_step(hybrid_.get(), hybrid_status, level, topology_, pool_, 2);
    dram_status.advance(pool_);
    hybrid_status.advance(pool_);
    EXPECT_EQ(dram_status.frontier_bitmap().word(0),
              hybrid_status.frontier_bitmap().word(0))
        << "level " << level;
  }
  for (Vertex v = 0; v < 8; ++v)
    EXPECT_EQ(dram_status.level(v), hybrid_status.level(v)) << "v=" << v;
}

TEST_F(BottomUpTest, HybridVariantMatchesDram) {
  BfsStatus dram_status{8};
  BfsStatus hybrid_status{8};
  dram_status.reset(0);
  hybrid_status.reset(0);
  for (int level = 1; level <= 3; ++level) {
    bottom_up_step(&backward_, dram_status, level, topology_, pool_, 2);
    bottom_up_step(hybrid_.get(), hybrid_status, level, topology_, pool_, 2);
    dram_status.advance(pool_);
    hybrid_status.advance(pool_);
  }
  for (Vertex v = 0; v < 8; ++v)
    EXPECT_EQ(dram_status.level(v), hybrid_status.level(v)) << "v=" << v;
}

TEST_F(BottomUpTest, MaskedSweepMatchesReferencePerLevel) {
  // A Kronecker graph leaves many vertices with degree 0, so most words
  // carry masked bits. Every level claims exactly the reference BFS's
  // vertices of that level and sums their degrees.
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 5), pool_);
  const VertexPartition partition{edges.vertex_count(), 2};
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  ASSERT_GT(backward.degree_zero().count(), 0U);
  HybridBackwardGraph hybrid{backward, 2, device_, dir_.aux("_kron")};
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool_);
  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const ReferenceBfsResult ref = reference_bfs(full, root);

  for (const auto& [name, storage] :
       std::vector<std::pair<std::string, BackwardStorage>>{
           {"dram", &backward}, {"hybrid", &hybrid}}) {
    SCOPED_TRACE(name);
    obs::metrics().reset();
    obs::set_enabled(true);
    BfsStatus status{edges.vertex_count()};
    status.reset(root);
    for (std::int32_t level = 1; status.frontier_size() > 0; ++level) {
      const StepResult r =
          bottom_up_step(storage, status, level, topology_, pool_, 64);
      std::int64_t claimed = 0;
      std::int64_t degrees = 0;
      for (Vertex v = 0; v < edges.vertex_count(); ++v) {
        if (ref.level[v] != level) continue;
        ++claimed;
        degrees += full.degree(v);
      }
      EXPECT_EQ(r.claimed, claimed) << "level " << level;
      EXPECT_EQ(r.claimed_degrees, degrees) << "level " << level;
      status.advance(pool_);
      for (Vertex v = 0; v < edges.vertex_count(); ++v)
        ASSERT_EQ(status.is_visited(v),
                  ref.level[v] >= 0 && ref.level[v] <= level)
            << "level " << level << " v=" << v;
    }
    obs::set_enabled(false);
    // Every word holds a degree-0 vertex; only the mask lets one be
    // skipped once its other vertices are visited.
    EXPECT_GT(obs::metrics().counter("bfs.bottom_up.words_skipped").value(),
              0U);
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      ASSERT_EQ(status.level(v), ref.level[v]) << "v=" << v;
  }
}

TEST_F(BottomUpTest, DeltaInsertReachesDegreeZeroBaseVertex) {
  // Vertex 7 has no base edges, so the mask covers it. Under a delta that
  // inserts 4-7 the sweep must still visit it: 7 joins level 3 under
  // parent 4, with its merged-view degree of 1.
  ASSERT_TRUE(backward_.degree_zero().test(7));
  const std::vector<EdgeOp> ops{EdgeOp::insert(4, 7)};
  const DeltaBuffer delta = DeltaBuffer::build(
      8, ops, [](Vertex, Vertex) -> std::int64_t { return 0; });
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    StepResult last;
    for (int level = 1; level <= 3; ++level) {
      last = bottom_up_step(backward, status, level, topology_, pool_, 2,
                            &delta);
      status.advance(pool_);
    }
    EXPECT_EQ(last.claimed, 1);
    EXPECT_EQ(last.claimed_degrees, 1);
    EXPECT_EQ(status.level(7), 3);
    EXPECT_EQ(status.parent(7), 4);
  }
}

TEST_F(BottomUpTest, WordKernelMatchesSerialFirstHitScan) {
  // Every level of a bottom-up-only search, on DRAM and on hybrid storage
  // with k = 0, 1 and 2: the claims, their degree sum,
  // the scanned edges and every parent equal a serial first-hit scan over
  // the same frontier. 3 nodes and 100-vertex chunks put chunk and node
  // boundaries inside words, so two workers share visited words.
  const EdgeList edges = thousand_vertex_graph(pool_);
  const VertexPartition partition{1000, 3};
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  ASSERT_GT(backward.degree_zero().count(), 0U);
  Vertex root = 0;
  while (backward.neighbors(root).empty()) ++root;
  const NumaTopology topology{3, 2};
  std::vector<std::unique_ptr<HybridBackwardGraph>> hybrids;
  std::vector<std::pair<std::string, BackwardStorage>> storages{
      {"dram", &backward}};
  for (const std::int64_t k : {0, 1, 2}) {
    hybrids.push_back(std::make_unique<HybridBackwardGraph>(
        backward, k, device_, dir_.aux("_serial" + std::to_string(k))));
    storages.emplace_back("hybrid k=" + std::to_string(k),
                          hybrids.back().get());
  }

  for (const auto& [name, storage] : storages) {
    SCOPED_TRACE(name);
    BfsStatus status{1000};
    status.reset(root);
    std::int32_t level = 1;
    for (; status.frontier_size() > 0; ++level) {
      const SerialLevel expected = serial_first_hit(backward, status);
      const StepResult r =
          bottom_up_step(storage, status, level, topology, pool_, 100);
      EXPECT_EQ(r.claimed, expected.claimed) << "level " << level;
      EXPECT_EQ(r.claimed_degrees, expected.claimed_degrees)
          << "level " << level;
      EXPECT_EQ(r.scanned_edges, expected.scanned) << "level " << level;
      for (Vertex v = 0; v < 1000; ++v) {
        const Vertex want = expected.parent[static_cast<std::size_t>(v)];
        if (want == kNoVertex) continue;
        ASSERT_EQ(status.parent(v), want) << "level " << level << " v=" << v;
        ASSERT_EQ(status.level(v), level) << "v=" << v;
      }
      status.advance(pool_);
      EXPECT_EQ(status.frontier_size(), expected.claimed);
    }
    EXPECT_GT(level, 3);  // the search ran several levels
  }
}

TEST_F(BottomUpTest, HubProbeCountsAsOneScannedDramEdge) {
  // The probe is one edge of scanned_edges and one DRAM edge of Figure
  // 14's counters, so the two tiers still sum to the scanned edges; a
  // hybrid graph with k = 0 has no hub, probes nothing and reads every
  // edge from NVM.
  const EdgeList edges = thousand_vertex_graph(pool_);
  const VertexPartition partition{1000, 3};
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  Vertex root = 0;
  while (backward.neighbors(root).empty()) ++root;
  const NumaTopology topology{3, 2};
  for (const std::int64_t k : {-1, 0, 1, 2}) {  // -1: the DRAM graph
    SCOPED_TRACE("k=" + std::to_string(k));
    std::unique_ptr<HybridBackwardGraph> hybrid;
    BackwardStorage storage = &backward;
    if (k >= 0) {
      hybrid = std::make_unique<HybridBackwardGraph>(
          backward, k, device_, dir_.aux("_probe" + std::to_string(k)));
      storage = hybrid.get();
    }
    obs::metrics().reset();
    obs::set_enabled(true);
    BfsStatus status{1000};
    status.reset(root);
    std::int64_t scanned = 0;
    std::int64_t claimed = 0;
    for (std::int32_t level = 1; status.frontier_size() > 0; ++level) {
      const StepResult r =
          bottom_up_step(storage, status, level, topology, pool_, 100);
      scanned += r.scanned_edges;
      claimed += r.claimed;
      status.advance(pool_);
    }
    obs::set_enabled(false);
    const std::uint64_t hub_claims =
        obs::metrics().counter("bfs.bottom_up.hub_claims").value();
    if (k == 0) {
      EXPECT_EQ(hub_claims, 0U);
    } else {
      EXPECT_GT(hub_claims, 0U);
      EXPECT_LE(hub_claims, static_cast<std::uint64_t>(claimed));
    }
    if (hybrid != nullptr) {
      EXPECT_EQ(hybrid->dram_edges_examined() + hybrid->nvm_edges_examined(),
                static_cast<std::uint64_t>(scanned));
      if (k == 0) {
        EXPECT_EQ(hybrid->dram_edges_examined(), 0U);
      }
    }
  }
}

TEST_F(BottomUpTest, DeltaTombstonedHubIsNeverParent) {
  // Vertex 4's list is hub-first: [1, 3]. With the edge 1-4 tombstoned,
  // its hub 1 is in the level-2 frontier {1, 3} but must not be its
  // parent: the rest of its list gives 3, with a merged-view degree of 1.
  ASSERT_EQ(backward_.hubs()[4], 1);
  const std::vector<EdgeOp> ops{EdgeOp::remove(1, 4)};
  const DeltaBuffer delta =
      DeltaBuffer::build(8, ops, [&](Vertex u, Vertex w) -> std::int64_t {
        return std::ranges::count(backward_.neighbors(u), w);
      });
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    bottom_up_step(backward, status, 1, topology_, pool_, 2, &delta);
    status.advance(pool_);
    const StepResult r =
        bottom_up_step(backward, status, 2, topology_, pool_, 2, &delta);
    EXPECT_EQ(status.parent(4), 3);
    EXPECT_EQ(status.parent(2), 1);
    EXPECT_EQ(r.claimed, 2);
    EXPECT_EQ(r.claimed_degrees, 2);  // 2: {1}, 4: {3}
  }
}

TEST_F(BottomUpTest, DeltaInsertIsScannedBeforeTheHub) {
  // Vertex 4's hub 1 is in the level-2 frontier {1, 3}, but an inserted
  // in-neighbor comes first in the merged list: the insert 3-4 claims it.
  const std::vector<EdgeOp> ops{EdgeOp::insert(3, 4)};
  const DeltaBuffer delta = DeltaBuffer::build(
      8, ops, [](Vertex, Vertex) -> std::int64_t { return 0; });
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    bottom_up_step(backward, status, 1, topology_, pool_, 2, &delta);
    status.advance(pool_);
    const StepResult r =
        bottom_up_step(backward, status, 2, topology_, pool_, 2, &delta);
    EXPECT_EQ(status.parent(4), 3);
    EXPECT_EQ(r.claimed, 2);
    EXPECT_EQ(r.claimed_degrees, 1 + 3);  // 4: base {1, 3} plus the insert
  }
}

TEST_F(BottomUpTest, DeltaKeepsTheMaskForVerticesWithoutInserts) {
  // A delta that inserts an edge to one degree-0 vertex unmasks only that
  // vertex: the word skip still fires, and the merged graph's levels come
  // out.
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 5), pool_);
  const VertexPartition partition{edges.vertex_count(), 2};
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  Vertex root = 0;
  while (backward.neighbors(root).empty()) ++root;
  Vertex isolated = 0;
  while (!backward.degree_zero().test(static_cast<std::size_t>(isolated)))
    ++isolated;
  const std::vector<EdgeOp> ops{EdgeOp::insert(root, isolated)};
  const DeltaBuffer delta = DeltaBuffer::build(
      edges.vertex_count(), ops,
      [](Vertex, Vertex) -> std::int64_t { return 0; });
  EdgeList merged = edges;
  merged.add(root, isolated);
  const Csr full = build_csr(merged, CsrBuildOptions{}, pool_);
  const ReferenceBfsResult ref = reference_bfs(full, root);
  HybridBackwardGraph hybrid{backward, 2, device_, dir_.aux("_dmask")};

  for (const auto& [name, storage] :
       std::vector<std::pair<std::string, BackwardStorage>>{
           {"dram", &backward}, {"hybrid", &hybrid}}) {
    SCOPED_TRACE(name);
    obs::metrics().reset();
    obs::set_enabled(true);
    BfsStatus status{edges.vertex_count()};
    status.reset(root);
    for (std::int32_t level = 1; status.frontier_size() > 0; ++level) {
      bottom_up_step(storage, status, level, topology_, pool_, 64, &delta);
      status.advance(pool_);
    }
    obs::set_enabled(false);
    EXPECT_GT(obs::metrics().counter("bfs.bottom_up.words_skipped").value(),
              0U);
    EXPECT_EQ(status.parent(isolated), root);
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      ASSERT_EQ(status.level(v), ref.level[v]) << "v=" << v;
  }
}

TEST_F(BottomUpTest, IdleWorkersSweepAStalledWorkersPartition) {
  // Four partitions on four workers, 64-vertex chunks. Partition 0 starts
  // at vertex 0, so each of its chunks is one visit of one word. Worker 0
  // holds its first word of partition 0 until every other survivor has
  // been visited: only workers that leave their home partition can sweep
  // the rest of partition 0. The wait is bounded, so a sweep without
  // stealing fails here instead of hanging.
  const EdgeList edges = thousand_vertex_graph(pool_);
  const VertexPartition partition{1000, 4};
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  const NumaTopology topology{4, 1};
  const Vertex home_begin = partition.range_of(0).begin;

  std::int64_t survivors = 0;  // the sweep masks the degree-0 vertices
  for (Vertex v = 0; v < 1000; ++v)
    survivors += backward.neighbors(v).empty() ? 0 : 1;
  std::vector<std::atomic<int>> visits(1000);
  std::atomic<std::int64_t> visited{0};
  std::atomic<std::uint64_t> helped_words{0};  // partition 0, worker != 0
  std::atomic<bool> timed_out{false};

  const PullResult pull = pull_sweep(
      &backward, nullptr, NothingDone{}, topology, pool_, 64,
      [&](std::size_t w) {
        return [&, w, held = false](auto& read, std::size_t word,
                                    std::uint64_t pending) mutable {
          const int count = std::popcount(pending);
          for_each_set_in_word(pending, word * 64, [&](std::size_t v) {
            visits[v].fetch_add(1, std::memory_order_relaxed);
          });
          const bool in_home =
              read.partition.source_range().begin == home_begin;
          if (w == 0 && in_home && !held) {
            held = true;
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (visited.load() + count < survivors) {
              if (std::chrono::steady_clock::now() > deadline) {
                timed_out.store(true);
                break;
              }
              std::this_thread::yield();
            }
          }
          if (w != 0 && in_home) helped_words.fetch_add(1);
          visited.fetch_add(count);
          return std::int64_t{0};
        };
      });

  EXPECT_FALSE(timed_out.load())
      << "no other worker swept the rest of the stalled partition";
  for (Vertex v = 0; v < 1000; ++v)
    ASSERT_EQ(visits[static_cast<std::size_t>(v)].load(),
              backward.neighbors(v).empty() ? 0 : 1)
        << "v=" << v;
  EXPECT_EQ(visited.load(), survivors);
  EXPECT_GT(helped_words.load(), 0U);
  EXPECT_GT(pull.chunks_stolen, 0U);

  // Stealing moves work between workers, never the work itself: a
  // bottom-up BFS on four workers claims, scans and probes exactly what a
  // one-worker sweep of the same partitions does, with the same tree.
  Vertex root = 0;
  while (backward.neighbors(root).empty()) ++root;
  struct Run {
    std::vector<StepResult> steps;
    std::uint64_t hub_claims = 0;
    std::vector<Vertex> parent;
    std::vector<std::int32_t> level;
  };
  const auto run = [&](ThreadPool& pool) {
    Run out;
    obs::metrics().reset();
    obs::set_enabled(true);
    BfsStatus status{1000};
    status.reset(root);
    for (std::int32_t level = 1; status.frontier_size() > 0; ++level) {
      out.steps.push_back(
          bottom_up_step(&backward, status, level, topology, pool, 64));
      status.advance(pool);
    }
    obs::set_enabled(false);
    out.hub_claims =
        obs::metrics().counter("bfs.bottom_up.hub_claims").value();
    out.parent = status.parent_snapshot();
    out.level = status.levels();
    return out;
  };
  ThreadPool one{1};
  const Run serial = run(one);
  const Run stealing = run(pool_);
  ASSERT_EQ(stealing.steps.size(), serial.steps.size());
  for (std::size_t i = 0; i < serial.steps.size(); ++i) {
    SCOPED_TRACE("level " + std::to_string(i + 1));
    EXPECT_EQ(stealing.steps[i].claimed, serial.steps[i].claimed);
    EXPECT_EQ(stealing.steps[i].claimed_degrees,
              serial.steps[i].claimed_degrees);
    EXPECT_EQ(stealing.steps[i].scanned_edges, serial.steps[i].scanned_edges);
  }
  EXPECT_EQ(stealing.hub_claims, serial.hub_claims);
  EXPECT_GT(serial.hub_claims, 0U);
  EXPECT_EQ(stealing.level, serial.level);
  EXPECT_EQ(stealing.parent, serial.parent);
}

TEST_F(BottomUpTest, HybridCountsNvmWork) {
  HybridBackwardGraph hybrid{backward_, 0, device_,
                             dir_.aux("_nvm")};  // all on NVM

  BfsStatus status{8};
  status.reset(0);
  const std::uint64_t before = device_->stats().snapshot().requests;
  const StepResult r =
      bottom_up_step(&hybrid, status, 1, topology_, pool_, 2);
  const std::uint64_t served = device_->stats().snapshot().requests - before;
  EXPECT_EQ(r.claimed, 2);
  EXPECT_GT(hybrid.nvm_edges_examined(), 0u);
  EXPECT_EQ(hybrid.dram_edges_examined(), 0u);
  // Every tail read reaches the step's request count.
  EXPECT_GT(r.nvm_requests, 0u);
  EXPECT_EQ(r.nvm_requests, served);
}

}  // namespace
}  // namespace sembfs
