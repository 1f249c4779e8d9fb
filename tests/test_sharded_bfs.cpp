// Sharded semi-external BFS tests: ShardGrid partition invariants, the
// reference-exact correctness matrix across shard counts / directions /
// encodings / chunk formats, replay across independently built instances,
// per-shard fault containment (top-down reads the NVM copy, bottom-up only
// the DRAM copy), and the communication-volume collapse at the direction
// switch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bfs/reference_bfs.hpp"
#include "bfs/validate.hpp"
#include "graph/csr.hpp"
#include "graph/kronecker.hpp"
#include "graph_fixtures.hpp"
#include "nvm/device_profile.hpp"
#include "nvm/fault_plan.hpp"
#include "parallel/thread_pool.hpp"
#include "shard/sharded_bfs.hpp"
#include "test_util.hpp"

namespace sembfs::shard {
namespace {

using testutil::ScopedTestDir;

constexpr std::uint64_t kSeed = 0xd15c0de;

// --- ShardGrid invariants -------------------------------------------------

TEST(ShardGrid, BlocksTileAndNest) {
  // Small and non-divisible vertex counts stress the floor(k*n/parts)
  // rounding; every invariant the exchange patterns rely on must hold.
  for (const Vertex n : {Vertex{10}, Vertex{1000}, Vertex{1 << 14}}) {
    for (const std::size_t shards : {1u, 2u, 3u, 4u, 6u, 8u, 16u}) {
      const ShardGrid grid{n, shards};
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " shards=" + std::to_string(shards));
      ASSERT_EQ(grid.shard_count(), shards);
      ASSERT_EQ(grid.rows() * grid.cols(), shards);
      ASSERT_LE(grid.rows(), grid.cols());

      std::vector<bool> owned(static_cast<std::size_t>(n), false);
      for (std::size_t k = 0; k < shards; ++k) {
        const VertexRange own = grid.owner_block(k);
        const VertexRange dst = grid.destination_range(k);
        // Owner block nests in this shard's destination block (claims for
        // owned children stay inside the grid column)...
        EXPECT_GE(own.begin, dst.begin);
        EXPECT_LE(own.end, dst.end);
        // ...and in the publish row's source block (the shards its
        // frontier is published to hold the outgoing edges).
        const VertexRange pub = grid.row_block(grid.publish_row(k));
        EXPECT_GE(own.begin, pub.begin);
        EXPECT_LE(own.end, pub.end);
        for (Vertex v = own.begin; v < own.end; ++v) {
          EXPECT_EQ(grid.owner_of(v), k);
          ASSERT_FALSE(owned[static_cast<std::size_t>(v)]);
          owned[static_cast<std::size_t>(v)] = true;
        }
      }
      // Owner blocks tile the vertex space exactly.
      for (Vertex v = 0; v < n; ++v)
        ASSERT_TRUE(owned[static_cast<std::size_t>(v)]) << "v=" << v;

      // Row/col members are ascending and consistent with coordinates.
      for (std::size_t r = 0; r < grid.rows(); ++r) {
        const std::vector<std::size_t> members = grid.row_members(r);
        ASSERT_EQ(members.size(), grid.cols());
        for (std::size_t i = 0; i < members.size(); ++i) {
          EXPECT_EQ(grid.row_of(members[i]), r);
          if (i > 0) {
            EXPECT_GT(members[i], members[i - 1]);
          }
        }
      }
      for (std::size_t c = 0; c < grid.cols(); ++c) {
        const std::vector<std::size_t> members = grid.col_members(c);
        ASSERT_EQ(members.size(), grid.rows());
        for (const std::size_t k : members) EXPECT_EQ(grid.col_of(k), c);
      }

      // Owners of col_block(j) are exactly grid column j — the alignment
      // that routes top-down claims along the column.
      for (std::size_t c = 0; c < grid.cols(); ++c) {
        const VertexRange block = grid.col_block(c);
        for (Vertex v = block.begin; v < block.end; ++v)
          EXPECT_EQ(grid.col_of(grid.owner_of(v)), c);
      }
    }
  }
}

TEST(ShardGrid, ForcedGridRows) {
  const ShardGrid tall{1000, 8, 4};
  EXPECT_EQ(tall.rows(), 4u);
  EXPECT_EQ(tall.cols(), 2u);
  const ShardGrid flat{1000, 8, 1};
  EXPECT_EQ(flat.rows(), 1u);
  EXPECT_EQ(flat.cols(), 8u);
}

// --- correctness matrix ---------------------------------------------------

void expect_reference_exact(const EdgeList& edges, const ShardedBfs&,
                            const ShardedBfsResult& result,
                            const ReferenceBfsResult& ref, Vertex root) {
  ASSERT_EQ(result.visited, ref.visited) << "root " << root;
  for (Vertex v = 0; v < edges.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]) << "root " << root << " v " << v;
  const ValidationResult check =
      validate_bfs(edges, root, result.parent, result.level);
  ASSERT_TRUE(check.ok) << check.error;
}

struct ShardCase {
  const char* graph;  // "small" | "path" | "star" | "complete" | "kron"
  std::size_t shards;
  std::size_t grid_rows;  // 0 = auto
  ShardedBfsConfig::Mode mode;
  EncodingChoice encoding;
  ChunkFormat format;

  friend std::ostream& operator<<(std::ostream& os, const ShardCase& c) {
    const char* mode = c.mode == ShardedBfsConfig::Mode::Hybrid ? "hybrid"
                       : c.mode == ShardedBfsConfig::Mode::TopDownOnly
                           ? "td"
                           : "bu";
    return os << c.graph << "_s" << c.shards << "_g" << c.grid_rows << "_"
              << mode << "_" << encoding_choice_name(c.encoding) << "_"
              << (c.format == ChunkFormat::kRaw ? "raw" : "varint");
  }
};

class ShardedBfsMatrix : public ::testing::TestWithParam<ShardCase> {};

EdgeList make_graph(const char* name, ThreadPool& pool) {
  const std::string graph{name};
  if (graph == "small") return fixtures::small_graph();
  if (graph == "path") return fixtures::path_graph(64);
  if (graph == "star") return fixtures::star_graph(64);
  if (graph == "complete") return fixtures::complete_graph(16);
  return generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
}

TEST_P(ShardedBfsMatrix, MatchesReferenceBfs) {
  const ShardCase c = GetParam();
  SCOPED_TRACE(::testing::PrintToString(c));
  ScopedTestDir dir{"shardbfs"};
  ThreadPool pool{std::max<std::size_t>(4, c.shards)};
  const EdgeList edges = make_graph(c.graph, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  ShardNodeConfig node_config;
  node_config.format = c.format;
  node_config.chunk_bytes = 1024;
  ShardedBfs bfs{edges,       c.shards,    pool, DeviceProfile::dram(),
                 dir.path(),  node_config, c.grid_rows};

  ShardedBfsConfig config;
  config.mode = c.mode;
  config.frontier_encoding = c.encoding;
  // Make the hybrid actually switch on the small graphs.
  config.policy.alpha = 16;
  config.policy.beta = 1e5;

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  Vertex second = edges.vertex_count() / 2;
  while (full.degree(second) == 0) ++second;
  for (const Vertex r : {root, second}) {
    const ShardedBfsResult result = bfs.run(r, config);
    const ReferenceBfsResult ref = reference_bfs(full, r);
    expect_reference_exact(edges, bfs, result, ref, r);
    EXPECT_EQ(result.visited,
              [&] {
                std::int64_t sum = 0;
                for (const ShardLevelStats& ls : result.levels)
                  sum += ls.claimed_vertices;
                return sum + 1;  // root is claimed by seeding, not a level
              }())
        << "per-level claims must add up to the visited count";
    for (const ShardLevelStats& ls : result.levels) {
      EXPECT_EQ(ls.remote_bytes,
                ls.frontier_bytes + ls.membership_bytes + ls.claim_bytes);
      // Each bottom-up claim is some source's first hit.
      if (ls.direction == Direction::TopDown)
        EXPECT_EQ(ls.scanned_edges, 0u);
      else
        EXPECT_GE(ls.scanned_edges,
                  static_cast<std::uint64_t>(ls.claimed_vertices));
    }
    // The TEPS count is half the full degrees of the visited vertices.
    std::int64_t degrees = 0;
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      if (ref.level[v] >= 0) degrees += full.degree(v);
    EXPECT_EQ(result.teps_edge_count, degrees / 2);

    // Determinism: an identical re-run replays parents bit-for-bit, not
    // just levels.
    const ShardedBfsResult again = bfs.run(r, config);
    EXPECT_EQ(again.parent, result.parent);
    EXPECT_EQ(again.total_remote_bytes, result.total_remote_bytes);
  }
}

using Mode = ShardedBfsConfig::Mode;

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShardedBfsMatrix,
    ::testing::Values(
        // Degenerate and structured graphs, hybrid, auto encoding.
        ShardCase{"small", 4, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        ShardCase{"path", 4, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        ShardCase{"star", 4, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        ShardCase{"complete", 4, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        // Single shard degenerates to local BFS; prime counts force 1xR.
        ShardCase{"kron", 1, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        ShardCase{"kron", 3, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        // Shard-count sweep on the kronecker, both chunk formats.
        ShardCase{"kron", 2, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        ShardCase{"kron", 4, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kVarint},
        ShardCase{"kron", 8, 0, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        // Forced tall grid (rows > cols is legal when forced).
        ShardCase{"kron", 8, 4, Mode::Hybrid, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        // Direction baselines: pure top-down and pure bottom-up must be
        // exact on their own, not only as hybrid phases.
        ShardCase{"kron", 4, 0, Mode::TopDownOnly, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        ShardCase{"kron", 4, 0, Mode::BottomUpOnly, EncodingChoice::kAuto,
                  ChunkFormat::kRaw},
        // Forced wire encodings.
        ShardCase{"kron", 4, 0, Mode::Hybrid, EncodingChoice::kForceBitmap,
                  ChunkFormat::kRaw},
        ShardCase{"kron", 4, 0, Mode::Hybrid, EncodingChoice::kForceVarint,
                  ChunkFormat::kVarint}),
    [](const ::testing::TestParamInfo<ShardCase>& param) {
      return ::testing::PrintToString(param.param);
    });

// --- replay across instances ----------------------------------------------

void expect_same_level_stats(const ShardLevelStats& a,
                             const ShardLevelStats& b) {
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.direction, b.direction);
  EXPECT_EQ(a.frontier_vertices, b.frontier_vertices);
  EXPECT_EQ(a.claimed_vertices, b.claimed_vertices);
  EXPECT_EQ(a.remote_bytes, b.remote_bytes);
  EXPECT_EQ(a.frontier_bytes, b.frontier_bytes);
  EXPECT_EQ(a.membership_bytes, b.membership_bytes);
  EXPECT_EQ(a.claim_bytes, b.claim_bytes);
  EXPECT_EQ(a.remote_messages, b.remote_messages);
  EXPECT_EQ(a.nvm_requests, b.nvm_requests);
  EXPECT_EQ(a.scanned_edges, b.scanned_edges);
  EXPECT_EQ(a.io_failures, b.io_failures);
  EXPECT_EQ(a.degraded_shards, b.degraded_shards);
}

TEST(ShardedBfsReplay, InstancesOnDifferentPoolsAgree) {
  // Two instances built from one edge list on pools of different widths:
  // the blocks' parallel scatter interleaves differently, yet every
  // bottom-up first hit — and so every parent, claim byte and level stat —
  // must match, as it would across processes.
  ScopedTestDir dir{"shardreplay"};
  ThreadPool narrow{4};
  ThreadPool wide{8};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(12, 16, kSeed), narrow);
  const Csr full = build_csr(edges, CsrBuildOptions{}, narrow);
  ShardedBfs a{edges, 4, narrow, DeviceProfile::dram(), dir.path() + "/a"};
  ShardedBfs b{edges, 4, wide, DeviceProfile::dram(), dir.path() + "/b"};

  int roots = 0;
  for (Vertex root = 0; root < edges.vertex_count() && roots < 16;
       root += 97) {
    if (full.degree(root) == 0) continue;
    ++roots;
    SCOPED_TRACE("root " + std::to_string(root));
    const ShardedBfsResult ra = a.run(root, ShardedBfsConfig{});
    const ShardedBfsResult rb = b.run(root, ShardedBfsConfig{});
    EXPECT_EQ(ra.parent, rb.parent);
    EXPECT_EQ(ra.level, rb.level);
    EXPECT_EQ(ra.total_remote_bytes, rb.total_remote_bytes);
    EXPECT_EQ(ra.total_remote_messages, rb.total_remote_messages);
    ASSERT_EQ(ra.levels.size(), rb.levels.size());
    for (std::size_t i = 0; i < ra.levels.size(); ++i)
      expect_same_level_stats(ra.levels[i], rb.levels[i]);
  }
  EXPECT_EQ(roots, 16);
}

/// FNV-1a over the little-endian bytes of 64-bit values.
class Fnv64 {
 public:
  void add(std::uint64_t x) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct GoldenCase {
  std::size_t shards;
  std::size_t grid_rows;
  ShardedBfsConfig::Mode mode;
  EncodingChoice encoding;
  std::uint64_t tree_hash;  ///< parent, level, visited and TEPS edges
  std::uint64_t wire_hash;  ///< every level's bytes, messages and requests
};

TEST(ShardedBfsReplay, GoldenWireAndTreesAcrossVersions) {
  // Pins what a sharded run sends and builds to fixed values, so a rework
  // of the level loop that changes any byte on the wire, any parent or
  // any device request fails here even when it still matches the
  // reference levels. The 1x3 grid's owner windows are not word-aligned.
  // Both hashes cover two roots. Every case builds the same tree: each
  // vertex's parent is its smallest-ID neighbour one level up.
  using M = ShardedBfsConfig::Mode;
  const GoldenCase cases[] = {
      {4, 2, M::Hybrid, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0xf6e77c3ea9a8313d},
      {4, 2, M::Hybrid, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0x863db55b8c91fd10},
      {4, 2, M::Hybrid, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0x3769e0eb0c05a9c6},
      {4, 2, M::TopDownOnly, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0x4340436e2c08b374},
      {4, 2, M::TopDownOnly, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0xf5e5b0211ef417d9},
      {4, 2, M::TopDownOnly, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0x3b87bb2b20717623},
      {4, 2, M::BottomUpOnly, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0x8dcc408e06d8f6c4},
      {4, 2, M::BottomUpOnly, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0xb26e328431977935},
      {4, 2, M::BottomUpOnly, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0x2492ebbd8e09ad47},
      {3, 1, M::Hybrid, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0x61afeb1dd207ddbc},
      {3, 1, M::Hybrid, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0x0afbac43ef1fa067},
      {3, 1, M::Hybrid, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0xb43ccf64601770fb},
      {3, 1, M::TopDownOnly, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0x6ca75fec2a41e384},
      {3, 1, M::TopDownOnly, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0xa2d6ebe2a7951daf},
      {3, 1, M::TopDownOnly, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0xf9751ec4ec344bbf},
      {3, 1, M::BottomUpOnly, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0xb99cd3945e3f7a36},
      {3, 1, M::BottomUpOnly, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0xd42a1dbf07622c35},
      {3, 1, M::BottomUpOnly, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0x9e45ff3a0b7e5309},
      {8, 2, M::Hybrid, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0x1943945a077f143c},
      {8, 2, M::Hybrid, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0x6e3cd08f98c841c3},
      {8, 2, M::Hybrid, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0x7f68ac161ade94dd},
      {8, 2, M::TopDownOnly, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0x8335e4fc2a80c173},
      {8, 2, M::TopDownOnly, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0xa96ac5eba4e5962b},
      {8, 2, M::TopDownOnly, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0x0a66c42b35a26c06},
      {8, 2, M::BottomUpOnly, EncodingChoice::kAuto,
       0xdee17d95be6deee3, 0xcd2865536031ec26},
      {8, 2, M::BottomUpOnly, EncodingChoice::kForceBitmap,
       0xdee17d95be6deee3, 0x00a59acab6d3704f},
      {8, 2, M::BottomUpOnly, EncodingChoice::kForceVarint,
       0xdee17d95be6deee3, 0x3db1d59671a28573},
  };

  ScopedTestDir dir{"shardgolden"};
  ThreadPool pool{8};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  Vertex second = edges.vertex_count() / 2;
  while (full.degree(second) == 0) ++second;

  ShardNodeConfig node_config;
  node_config.chunk_bytes = 1024;
  std::unique_ptr<ShardedBfs> bfs;
  std::size_t built_shards = 0;
  for (const GoldenCase& c : cases) {
    if (c.shards != built_shards) {
      bfs.reset();
      bfs = std::make_unique<ShardedBfs>(
          edges, c.shards, pool, DeviceProfile::dram(),
          dir.path() + "/s" + std::to_string(c.shards), node_config,
          c.grid_rows);
      built_shards = c.shards;
    }
    ASSERT_EQ(bfs->grid().rows(), c.grid_rows);
    ShardedBfsConfig config;
    config.mode = c.mode;
    config.frontier_encoding = c.encoding;
    config.policy.alpha = 16;
    config.policy.beta = 1e5;

    Fnv64 tree;
    Fnv64 wire;
    for (const Vertex r : {root, second}) {
      const ShardedBfsResult result = bfs->run(r, config);
      for (const Vertex p : result.parent)
        tree.add(static_cast<std::uint64_t>(p));
      for (const std::int32_t l : result.level)
        tree.add(static_cast<std::uint64_t>(l));
      tree.add(static_cast<std::uint64_t>(result.visited));
      tree.add(static_cast<std::uint64_t>(result.teps_edge_count));
      wire.add(result.levels.size());
      for (const ShardLevelStats& ls : result.levels) {
        wire.add(static_cast<std::uint64_t>(ls.direction));
        wire.add(static_cast<std::uint64_t>(ls.frontier_vertices));
        wire.add(static_cast<std::uint64_t>(ls.claimed_vertices));
        wire.add(ls.frontier_bytes);
        wire.add(ls.membership_bytes);
        wire.add(ls.claim_bytes);
        wire.add(ls.remote_messages);
        wire.add(ls.nvm_requests);
      }
    }
    const std::string name = std::to_string(c.grid_rows) + "x" +
                             std::to_string(c.shards / c.grid_rows) + " " +
                             (c.mode == M::Hybrid        ? "hybrid"
                              : c.mode == M::TopDownOnly ? "td"
                                                         : "bu") +
                             " " + encoding_choice_name(c.encoding);
    EXPECT_EQ(tree.value(), c.tree_hash)
        << name << ": tree 0x" << std::hex << tree.value();
    EXPECT_EQ(wire.value(), c.wire_hash)
        << name << ": wire 0x" << std::hex << wire.value();
  }
}

// --- fault containment ----------------------------------------------------

TEST(ShardedBfsFaults, SingleFaultyShardDegradesWithoutPoisoning) {
  ScopedTestDir dir{"shardfault"};
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  ShardNodeConfig node_config;
  node_config.retry.max_attempts = 2;  // fail fast into the DRAM fallback
  ShardedBfs bfs{edges, 4, pool, DeviceProfile::dram(), dir.path(),
                 node_config};

  // Only shard 2 fails; a certain read error means every fetch it serves
  // must come from its fallback, and no other shard may be affected.
  // Top-down only: bottom-up levels never read the device, and the one
  // top-down level the hybrid runs on this graph fetches nothing from
  // shard 2.
  FaultPlan plan;
  plan.seed = kSeed;
  plan.read_error_rate = 1.0;
  bfs.set_fault_plan(2, plan);
  ShardedBfsConfig top_down;
  top_down.mode = ShardedBfsConfig::Mode::TopDownOnly;

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const ShardedBfsResult result = bfs.run(root, top_down);
  const ReferenceBfsResult ref = reference_bfs(full, root);
  expect_reference_exact(edges, bfs, result, ref, root);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.io_failures, 0u);
  for (const ShardLevelStats& ls : result.levels)
    EXPECT_LE(ls.degraded_shards, 1u)
        << "only the faulted shard may degrade (level " << ls.level << ")";

  // Clearing the plan restores a clean run.
  FaultPlan off;
  bfs.set_fault_plan(2, off);
  const ShardedBfsResult clean = bfs.run(root, top_down);
  EXPECT_FALSE(clean.degraded);
  EXPECT_EQ(clean.io_failures, 0u);
  EXPECT_EQ(clean.parent, result.parent);
}

TEST(ShardedBfsFaults, DegradedShardSendsCleanClaims) {
  // A shard whose reads fail for good redoes the level's expansion from
  // its DRAM copy, so it sends exactly the claims of a clean run: the
  // traffic and the tree replay, and only that shard degrades.
  ScopedTestDir dir{"shardredo"};
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  ShardedBfs bfs{edges, 4, pool, DeviceProfile::dram(), dir.path()};
  ShardedBfsConfig top_down;
  top_down.mode = ShardedBfsConfig::Mode::TopDownOnly;

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const ShardedBfsResult clean = bfs.run(root, top_down);
  ASSERT_FALSE(clean.degraded);

  FaultPlan plan;
  plan.seed = kSeed;
  plan.read_error_rate = 1.0;
  bfs.set_fault_plan(2, plan);
  const ShardedBfsResult faulted = bfs.run(root, top_down);
  EXPECT_TRUE(faulted.degraded);
  EXPECT_EQ(faulted.parent, clean.parent);
  ASSERT_EQ(faulted.levels.size(), clean.levels.size());
  for (std::size_t i = 0; i < clean.levels.size(); ++i) {
    SCOPED_TRACE("level " + std::to_string(clean.levels[i].level));
    EXPECT_EQ(faulted.levels[i].claim_bytes, clean.levels[i].claim_bytes);
    EXPECT_EQ(faulted.levels[i].remote_messages,
              clean.levels[i].remote_messages);
    EXPECT_LE(faulted.levels[i].degraded_shards, 1u);
  }
}

TEST(ShardedBfsFaults, BottomUpNeverTouchesDevice) {
  // Bottom-up sweeps the DRAM copy of each block, so certain read errors
  // on every shard change nothing: no read fails, and no level degrades.
  ScopedTestDir dir{"shardbu"};
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  ShardedBfs bfs{edges, 4, pool, DeviceProfile::dram(), dir.path()};
  FaultPlan plan;
  plan.seed = kSeed;
  plan.read_error_rate = 1.0;
  bfs.arm_fault_plans(plan);

  ShardedBfsConfig bottom_up;
  bottom_up.mode = ShardedBfsConfig::Mode::BottomUpOnly;
  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const ShardedBfsResult result = bfs.run(root, bottom_up);
  const ReferenceBfsResult ref = reference_bfs(full, root);
  expect_reference_exact(edges, bfs, result, ref, root);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.io_failures, 0u);
  for (const ShardLevelStats& ls : result.levels)
    EXPECT_EQ(ls.nvm_requests, 0u) << "level " << ls.level;
}

TEST(ShardedBfsFaults, ArmedPlansStayExactAndDeterministic) {
  ScopedTestDir dir{"shardarm"};
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  ShardedBfs bfs{edges, 4, pool, DeviceProfile::dram(), dir.path()};
  FaultPlan base;
  base.seed = kSeed;
  base.read_error_rate = 1e-2;
  bfs.arm_fault_plans(base);

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const ShardedBfsResult result = bfs.run(root, ShardedBfsConfig{});
  const ReferenceBfsResult ref = reference_bfs(full, root);
  expect_reference_exact(edges, bfs, result, ref, root);
}

// --- communication profile ------------------------------------------------

TEST(ShardedBfsComms, HybridCollapsesRemoteBytesVersusTopDown) {
  ScopedTestDir dir{"shardcomm"};
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 16, kSeed), pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  ShardedBfs bfs{edges, 4, pool, DeviceProfile::dram(), dir.path()};

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;

  ShardedBfsConfig hybrid;
  hybrid.policy.alpha = 16;  // switch near the frontier peak
  ShardedBfsConfig td;
  td.mode = ShardedBfsConfig::Mode::TopDownOnly;

  const ShardedBfsResult h = bfs.run(root, hybrid);
  const ShardedBfsResult t = bfs.run(root, td);
  ASSERT_EQ(h.visited, t.visited);
  // Top-down pays one claim per cut edge at the peak levels; the switch
  // to membership exchange must collapse the total.
  EXPECT_LT(h.total_remote_bytes, t.total_remote_bytes / 2)
      << "hybrid " << h.total_remote_bytes << " vs top-down "
      << t.total_remote_bytes;

  // The per-level profile shows the drop at the switch itself: the first
  // bottom-up level carries a fraction of what top-down pays for the
  // same level (one claim per cut edge at the frontier peak).
  std::size_t switch_level = h.levels.size();
  for (std::size_t i = 0; i < h.levels.size(); ++i) {
    if (h.levels[i].direction == Direction::BottomUp) {
      switch_level = i;
      break;
    }
  }
  ASSERT_LT(switch_level, h.levels.size())
      << "hybrid run never switched direction";
  ASSERT_LT(switch_level, t.levels.size());
  EXPECT_GT(t.levels[switch_level].remote_bytes,
            3 * h.levels[switch_level].remote_bytes)
      << "td " << t.levels[switch_level].remote_bytes << " vs bu "
      << h.levels[switch_level].remote_bytes << " at the switch level";
}

// --- TSan target ----------------------------------------------------------

// Selected by the thread-sanitizer CI job by name: exercises the full
// concurrent per-level protocol (pool workers racing sends, barriers, and
// atomic claim state) back to back.
TEST(ShardConcurrency, RepeatedShardedRunsAreRaceFree) {
  ScopedTestDir dir{"shardtsan"};
  ThreadPool pool{8};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(9, 8, kSeed), pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  ShardedBfs bfs{edges, 8, pool, DeviceProfile::dram(), dir.path()};

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const ReferenceBfsResult ref = reference_bfs(full, root);
  for (int i = 0; i < 3; ++i) {
    const ShardedBfsResult result = bfs.run(root, ShardedBfsConfig{});
    ASSERT_EQ(result.visited, ref.visited);
  }
}

}  // namespace
}  // namespace sembfs::shard
