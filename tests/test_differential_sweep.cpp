// Randomized differential sweep over the failure domain: every cell of
// {generator} x {storage tier} x {switch policy} x {fault rate} must
// produce the same level assignment as the serial reference BFS and pass
// Graph500 Step-4 validation — with faults injected, via containment and
// degraded bottom-up retries rather than by luck. The runner drives the
// engine's BfsProgram, and a second sweep (AnalyticsSweep below) runs the
// engine's components/PageRank/triangle programs against single-threaded
// in-memory references over the same storage cells.
//
// Everything derives from one fixed seed (kSeed below). FaultPlan
// decisions are a pure function of (seed, request index), so the set of
// faulted requests is reproducible regardless of thread scheduling; on
// any failure the case printer emits the seed to rerun with.
#include <gtest/gtest.h>

#include <optional>

#include "analytics_references.hpp"
#include "bfs/reference_bfs.hpp"
#include "bfs/validate.hpp"
#include "engine/bfs_program.hpp"
#include "engine/components_program.hpp"
#include "engine/pagerank_program.hpp"
#include "engine/program_session.hpp"
#include "engine/triangle_program.hpp"
#include "graph/uniform.hpp"
#include "graph_fixtures.hpp"
#include "shard/sharded_bfs.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

// The one seed behind graph generation and the fault schedule. Printed on
// failure; change it here to reproduce a reported run.
constexpr std::uint64_t kSeed = 0xd1f5eed;

struct DiffCase {
  const char* generator;  // "kron" | "uniform"
  // "dram" | "external" | "tiered" (external with a tier limit of 4)
  const char* storage;
  PolicyKind policy;
  double alpha;
  double beta;
  double read_error_rate;  // injected per-read error probability
  double corruption_rate;  // injected per-read bit-flip probability
  bool expect_degraded = false;  // the cell must actually hit the fallback
  // Hybrid cells leave NVM quickly (wide levels go bottom-up in DRAM);
  // TopDownOnly keeps every level on the device for fault-heavy cells.
  BfsMode mode = BfsMode::Hybrid;
  // On-NVM adjacency layout for external/tiered storage: the compressed
  // backends must be reference-exact across the same policy/fault matrix.
  ChunkFormat chunk_format = ChunkFormat::kRaw;

  // "_rep0" names the one frontier representation left of a retired
  // dimension; it stays so that existing case names do not change.
  friend std::ostream& operator<<(std::ostream& os, const DiffCase& c) {
    return os << c.generator << "_" << c.storage << "_policy"
              << static_cast<int>(c.policy) << "_mode"
              << static_cast<int>(c.mode) << "_rep0_fmt"
              << to_string(c.chunk_format) << "_a" << c.alpha << "_b"
              << c.beta << "_err" << c.read_error_rate << "_corr"
              << c.corruption_rate << "_seed" << kSeed;
  }
};

class DifferentialSweep : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DifferentialSweep, LevelsMatchReferenceAndTreeValidates) {
  const DiffCase c = GetParam();
  SCOPED_TRACE(::testing::Message()
               << "repro: case {" << c << "} with kSeed=" << kSeed);
  ThreadPool pool{4};

  EdgeList edges;
  if (std::string_view{c.generator} == "kron") {
    edges = generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
  } else {
    UniformParams params;
    params.scale = 10;
    params.edge_factor = 8;
    params.seed = kSeed;
    edges = generate_uniform(params, pool);
  }
  const VertexPartition partition{edges.vertex_count(), 4};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  testutil::ScopedTestDir scratch{"diff"};
  const std::string& dir = scratch.path();

  auto device = std::make_shared<NvmDevice>(DeviceProfile::dram());
  std::optional<ExternalForwardGraph> external;
  GraphStorage storage;
  storage.backward = &backward;
  if (std::string_view{c.storage} == "dram") {
    storage.forward = &forward;
  } else {
    const std::int64_t tier_limit =
        std::string_view{c.storage} == "tiered" ? 4 : 0;
    external.emplace(forward, device, dir + "/fg", /*chunk_bytes=*/4096u,
                     c.chunk_format, tier_limit);
    storage.forward = &*external;
  }

  BfsConfig config;
  config.mode = c.mode;
  config.policy.kind = c.policy;
  config.policy.alpha = c.alpha;
  config.policy.beta = c.beta;
  if (c.corruption_rate > 0.0) {
    // Corruption cells must detect flips, not ingest them: route fetches
    // through the chunk cache and verify against the offload checksums.
    config.chunk_cache_bytes = 1 << 20;
    config.verify_chunk_checksums = true;
  }

  // Armed after construction so only the BFS read path sees faults.
  FaultPlan plan;
  plan.seed = kSeed;
  plan.read_error_rate = c.read_error_rate;
  plan.corruption_rate = c.corruption_rate;
  if (plan.enabled()) device->set_fault_plan(plan);

  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool};

  Vertex first_root = 0;
  while (full.degree(first_root) == 0) ++first_root;
  Vertex second_root = edges.vertex_count() / 2;
  while (full.degree(second_root) == 0) ++second_root;
  bool saw_degraded = false;
  for (const Vertex root : {first_root, second_root}) {
    const BfsResult result = runner.run(root, config);
    const ReferenceBfsResult ref = reference_bfs(full, root);
    ASSERT_EQ(result.visited, ref.visited) << "root " << root;
    // The kernels sum degrees at claim time, degraded redos included.
    ASSERT_EQ(result.teps_edge_count, ref.teps_edge_count) << "root " << root;
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v]) << "root " << root << " v "
                                               << v;
    const ValidationResult v =
        validate_bfs(edges, root, result.parent, result.level);
    ASSERT_TRUE(v.ok) << "root " << root << ": " << v.error;
    // A degraded run must have a recorded cause, and vice versa faults
    // without degradation would mean a level silently went missing work.
    ASSERT_EQ(result.degraded, result.degraded_levels > 0);
    if (result.io_failures > 0) {
      ASSERT_TRUE(result.degraded);
    }
    saw_degraded |= result.degraded;
  }
  if (c.expect_degraded) {
    ASSERT_TRUE(saw_degraded);
  }
}

constexpr double kA = 1e4;  // the paper's default FrontierRatio rule
constexpr double kB = 1e5;

INSTANTIATE_TEST_SUITE_P(
    Matrix, DifferentialSweep,
    ::testing::Values(
        // Fault-free baseline: every generator x storage x policy cell.
        DiffCase{"kron", "dram", PolicyKind::FrontierRatio, kA, kB, 0, 0},
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 0, 0},
        DiffCase{"kron", "tiered", PolicyKind::FrontierRatio, kA, kB, 0, 0},
        DiffCase{"uniform", "dram", PolicyKind::FrontierRatio, kA, kB, 0, 0},
        DiffCase{"uniform", "external", PolicyKind::FrontierRatio, kA, kB, 0,
                 0},
        DiffCase{"uniform", "tiered", PolicyKind::FrontierRatio, kA, kB, 0,
                 0},
        DiffCase{"kron", "dram", PolicyKind::EdgeRatio, 14, 24, 0, 0},
        DiffCase{"kron", "external", PolicyKind::EdgeRatio, 14, 24, 0, 0},
        DiffCase{"kron", "tiered", PolicyKind::EdgeRatio, 14, 24, 0, 0},
        DiffCase{"uniform", "dram", PolicyKind::EdgeRatio, 14, 24, 0, 0},
        DiffCase{"uniform", "external", PolicyKind::EdgeRatio, 14, 24, 0, 0},
        DiffCase{"uniform", "tiered", PolicyKind::EdgeRatio, 14, 24, 0, 0},
        // Injected read errors (1e-3 per read) on the NVM-backed tiers:
        // containment + degraded bottom-up retries must keep the answer.
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 1e-3,
                 0},
        DiffCase{"kron", "tiered", PolicyKind::FrontierRatio, kA, kB, 1e-3,
                 0},
        DiffCase{"uniform", "external", PolicyKind::FrontierRatio, kA, kB,
                 1e-3, 0},
        DiffCase{"uniform", "tiered", PolicyKind::FrontierRatio, kA, kB, 1e-3,
                 0},
        DiffCase{"kron", "external", PolicyKind::EdgeRatio, 14, 24, 1e-3, 0},
        DiffCase{"uniform", "external", PolicyKind::EdgeRatio, 14, 24, 1e-3,
                 0},
        // Heavy error rate: degradation must actually fire (the first
        // injected error lands inside level 1's request stream for this
        // seed) and the tree must survive it.
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 3e-2,
                 0, true, BfsMode::TopDownOnly},
        DiffCase{"uniform", "tiered", PolicyKind::FrontierRatio, kA, kB,
                 3e-2, 0, false, BfsMode::TopDownOnly},
        // Injected bit corruption with checksum verification: flips heal
        // via re-fetch instead of reaching the traversal.
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 0,
                 1e-3},
        DiffCase{"uniform", "external", PolicyKind::FrontierRatio, kA, kB, 0,
                 1e-3},
        // Errors and corruption together.
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 1e-3,
                 1e-3},
        // Every level bottom-up: the push queue is never extracted.
        DiffCase{"kron", "dram", PolicyKind::FrontierRatio, kA, kB, 0, 0,
                 false, BfsMode::BottomUpOnly},
        // Chunk-format dimension: the varint-compressed external and tiered
        // backends must be reference-exact in the same policy cells...
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 0, 0,
                 false, BfsMode::Hybrid, ChunkFormat::kVarint},
        DiffCase{"kron", "tiered", PolicyKind::FrontierRatio, kA, kB, 0, 0,
                 false, BfsMode::Hybrid, ChunkFormat::kVarint},
        DiffCase{"uniform", "external", PolicyKind::EdgeRatio, 14, 24, 0, 0,
                 false, BfsMode::Hybrid, ChunkFormat::kVarint},
        DiffCase{"uniform", "tiered", PolicyKind::EdgeRatio, 14, 24, 0, 0,
                 false, BfsMode::Hybrid, ChunkFormat::kVarint},
        // ...under injected read errors (containment + degraded retry over
        // compressed blobs)...
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 1e-3,
                 0, false, BfsMode::Hybrid, ChunkFormat::kVarint},
        DiffCase{"uniform", "tiered", PolicyKind::FrontierRatio, kA, kB, 1e-3,
                 0, false, BfsMode::Hybrid, ChunkFormat::kVarint},
        // ...and under injected bit corruption: a flipped compressed blob
        // fails its own CRC inside CompressedBlockFile and heals via
        // re-fetch (the cache+registry protect the raw index file).
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 0,
                 1e-3, false, BfsMode::Hybrid, ChunkFormat::kVarint},
        DiffCase{"kron", "tiered", PolicyKind::FrontierRatio, kA, kB, 0,
                 1e-3, false, BfsMode::Hybrid, ChunkFormat::kVarint},
        DiffCase{"uniform", "external", PolicyKind::FrontierRatio, kA, kB, 0,
                 1e-3, false, BfsMode::Hybrid, ChunkFormat::kVarint},
        DiffCase{"uniform", "tiered", PolicyKind::FrontierRatio, kA, kB, 0,
                 1e-3, false, BfsMode::Hybrid, ChunkFormat::kVarint},
        // ...and with errors and corruption together on the heavy-error
        // top-down path, where degradation must still fire and contain.
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 1e-3,
                 1e-3, false, BfsMode::Hybrid, ChunkFormat::kVarint},
        DiffCase{"kron", "external", PolicyKind::FrontierRatio, kA, kB, 3e-2,
                 0, true, BfsMode::TopDownOnly, ChunkFormat::kVarint}));

// ---------------------------------------------------------------------------
// Analytics dimension: the engine's components, PageRank, and triangle
// programs against naive single-threaded in-memory references, across the
// same {generator} x {storage tier} x {chunk format} x {fault rate} cells.
// Components and triangle counts must match exactly — under fault
// injection too, via pull degradation (components, PageRank) and per-
// vertex healing from the DRAM backward graph (triangles). PageRank is
// epsilon-bounded: the reference replays the same number of synchronous
// iterations serially, so the only daylight is summation order.

struct AnalyticsCase {
  const char* generator;  // "kron" | "uniform"
  // "dram" | "external" | "tiered" (external with a tier limit of 4)
  const char* storage;
  ChunkFormat chunk_format = ChunkFormat::kRaw;
  double read_error_rate = 0.0;  // injected per-read error probability
  // >= 0: the backward side is a HybridBackwardGraph keeping this many
  // in-edges per vertex in DRAM (the rest on NVM, in chunk_format), so the
  // pull supersteps and triangle healing stream the NVM tail.
  std::int64_t backward_dram_edges = -1;

  friend std::ostream& operator<<(std::ostream& os, const AnalyticsCase& c) {
    os << c.generator << "_" << c.storage << "_fmt"
       << to_string(c.chunk_format) << "_err" << c.read_error_rate;
    if (c.backward_dram_edges >= 0) os << "_bwd" << c.backward_dram_edges;
    return os << "_seed" << kSeed;
  }
};

class AnalyticsSweep : public ::testing::TestWithParam<AnalyticsCase> {};

TEST_P(AnalyticsSweep, EngineMatchesSerialReferences) {
  const AnalyticsCase c = GetParam();
  SCOPED_TRACE(::testing::Message()
               << "repro: case {" << c << "} with kSeed=" << kSeed);
  ThreadPool pool{4};

  EdgeList edges;
  if (std::string_view{c.generator} == "kron") {
    edges = generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
  } else {
    UniformParams params;
    params.scale = 10;
    params.edge_factor = 8;
    params.seed = kSeed;
    edges = generate_uniform(params, pool);
  }
  const VertexPartition partition{edges.vertex_count(), 4};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  testutil::ScopedTestDir scratch{"diffan"};

  auto device = std::make_shared<NvmDevice>(DeviceProfile::dram());
  std::optional<ExternalForwardGraph> external;
  std::optional<HybridBackwardGraph> hybrid;
  GraphStorage storage;
  storage.backward = &backward;
  if (std::string_view{c.storage} == "dram") {
    storage.forward = &forward;
  } else {
    const std::int64_t tier_limit =
        std::string_view{c.storage} == "tiered" ? 4 : 0;
    external.emplace(forward, device, scratch.path() + "/fg",
                     /*chunk_bytes=*/4096u, c.chunk_format, tier_limit);
    storage.forward = &*external;
  }
  if (c.backward_dram_edges >= 0) {
    hybrid.emplace(backward, c.backward_dram_edges, device,
                   scratch.path() + "/bg", /*chunk_bytes=*/4096u,
                   c.chunk_format);
    storage.backward = &*hybrid;
  }

  const NumaTopology topology{4, 1};
  const BfsConfig config;

  // Armed after construction so only the program read paths see faults.
  FaultPlan plan;
  plan.seed = kSeed;
  plan.read_error_rate = c.read_error_rate;
  if (plan.enabled()) device->set_fault_plan(plan);

  {
    engine::ComponentsProgram program;
    engine::ProgramSession session{program, storage, topology, pool, config};
    session.run();
    const std::vector<Vertex> expected = testref::reference_components(full);
    ASSERT_EQ(program.labels().size(), expected.size());
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      ASSERT_EQ(program.label(v), expected[v]) << "components v " << v;
  }

  {
    engine::PageRankProgram program;
    engine::ProgramSession session{program, storage, topology, pool, config};
    session.run();
    ASSERT_GT(program.iterations(), 0);
    const std::vector<double> expected = testref::reference_pagerank(
        full, program.options().damping, program.iterations());
    const std::vector<double>& ranks = program.ranks();
    ASSERT_EQ(ranks.size(), expected.size());
    double sum = 0.0;
    for (Vertex v = 0; v < edges.vertex_count(); ++v) {
      ASSERT_NEAR(ranks[v], expected[v], 1e-9) << "pagerank v " << v;
      sum += ranks[v];
    }
    // Rank is conserved: teleport + dangling redistribution keep the
    // total mass at 1 regardless of direction or degradation.
    ASSERT_NEAR(sum, 1.0, 1e-6);
  }

  {
    engine::TriangleProgram program;
    engine::ProgramSession session{program, storage, topology, pool, config};
    session.run();
    ASSERT_EQ(program.triangles(), testref::reference_triangles(full));
  }

  {
    // A BFS over the same storage: its claim-time TEPS edge count matches
    // the reference's degree sum over the reached vertices.
    Vertex root = 0;
    while (full.degree(root) == 0) ++root;
    BfsStatus status{edges.vertex_count()};
    engine::BfsProgram program{status, root};
    engine::ProgramSession session{program, storage, topology, pool, config};
    session.run();
    const BfsResult result = program.snapshot_result(session);
    const ReferenceBfsResult ref = reference_bfs(full, root);
    ASSERT_EQ(result.level, ref.level);
    ASSERT_EQ(result.teps_edge_count, ref.teps_edge_count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AnalyticsSweep,
    ::testing::Values(
        // Fault-free baseline across every generator x storage cell.
        AnalyticsCase{"kron", "dram"}, AnalyticsCase{"kron", "external"},
        AnalyticsCase{"kron", "tiered"}, AnalyticsCase{"uniform", "dram"},
        AnalyticsCase{"uniform", "external"},
        AnalyticsCase{"uniform", "tiered"},
        // Varint-compressed adjacency on the NVM-backed tiers.
        AnalyticsCase{"kron", "external", ChunkFormat::kVarint},
        AnalyticsCase{"kron", "tiered", ChunkFormat::kVarint},
        AnalyticsCase{"uniform", "external", ChunkFormat::kVarint},
        AnalyticsCase{"uniform", "tiered", ChunkFormat::kVarint},
        // Injected read errors: answers must survive via containment —
        // pull degradation for components/PageRank, per-vertex healing
        // for triangles — on both raw and compressed layouts.
        AnalyticsCase{"kron", "external", ChunkFormat::kRaw, 1e-3},
        AnalyticsCase{"kron", "tiered", ChunkFormat::kRaw, 1e-3},
        AnalyticsCase{"uniform", "external", ChunkFormat::kRaw, 1e-3},
        AnalyticsCase{"uniform", "tiered", ChunkFormat::kRaw, 1e-3},
        AnalyticsCase{"kron", "external", ChunkFormat::kVarint, 1e-3},
        AnalyticsCase{"uniform", "tiered", ChunkFormat::kVarint, 1e-3},
        // Hybrid backward graph (2 DRAM in-edges per vertex, the rest on
        // NVM): the pull loops and the backward fallback read the tail,
        // once per forward kind in both chunk formats.
        AnalyticsCase{"kron", "dram", ChunkFormat::kRaw, 0, 2},
        AnalyticsCase{"kron", "external", ChunkFormat::kRaw, 0, 2},
        AnalyticsCase{"kron", "tiered", ChunkFormat::kRaw, 0, 2},
        AnalyticsCase{"uniform", "dram", ChunkFormat::kVarint, 0, 2},
        AnalyticsCase{"uniform", "external", ChunkFormat::kVarint, 0, 2},
        AnalyticsCase{"uniform", "tiered", ChunkFormat::kVarint, 0, 2}));

// ---------------------------------------------------------------------------
// Sharded sweep: the emulated multi-node BFS must agree with the serial
// reference across {generator} x {shard count} x {chunk format} x {fault
// rate}. Fault cells derive independent per-shard fault sequences from
// kSeed (arm_fault_plans adds the shard id), so failures land in
// different shards across cells but the whole schedule stays
// reproducible.

struct ShardDiffCase {
  const char* generator;  // "kron" | "uniform"
  std::size_t shards;
  ChunkFormat chunk_format;
  double read_error_rate;

  friend std::ostream& operator<<(std::ostream& os, const ShardDiffCase& c) {
    return os << c.generator << "_s" << c.shards << "_fmt"
              << to_string(c.chunk_format) << "_err" << c.read_error_rate
              << "_seed" << kSeed;
  }
};

class ShardedDifferentialSweep
    : public ::testing::TestWithParam<ShardDiffCase> {};

TEST_P(ShardedDifferentialSweep, LevelsMatchReferenceAndTreeValidates) {
  const ShardDiffCase c = GetParam();
  SCOPED_TRACE(::testing::Message()
               << "repro: case {" << c << "} with kSeed=" << kSeed);
  ThreadPool pool{std::max<std::size_t>(4, c.shards)};

  EdgeList edges;
  if (std::string_view{c.generator} == "kron") {
    edges = generate_kronecker(fixtures::small_kronecker(10, 8, kSeed), pool);
  } else {
    UniformParams params;
    params.scale = 10;
    params.edge_factor = 8;
    params.seed = kSeed;
    edges = generate_uniform(params, pool);
  }
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  testutil::ScopedTestDir scratch{"sharddiff"};
  shard::ShardNodeConfig node_config;
  node_config.format = c.chunk_format;
  shard::ShardedBfs sharded{edges,          c.shards,
                            pool,           DeviceProfile::dram(),
                            scratch.path(), node_config};
  if (c.read_error_rate > 0.0) {
    FaultPlan base;
    base.seed = kSeed;
    base.read_error_rate = c.read_error_rate;
    sharded.arm_fault_plans(base);
  }

  Vertex first_root = 0;
  while (full.degree(first_root) == 0) ++first_root;
  Vertex second_root = edges.vertex_count() / 2;
  while (full.degree(second_root) == 0) ++second_root;
  for (const Vertex root : {first_root, second_root}) {
    const shard::ShardedBfsResult result =
        sharded.run(root, shard::ShardedBfsConfig{});
    const ReferenceBfsResult ref = reference_bfs(full, root);
    ASSERT_EQ(result.visited, ref.visited) << "root " << root;
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v])
          << "root " << root << " v " << v;
    const ValidationResult check =
        validate_bfs(edges, root, result.parent, result.level);
    ASSERT_TRUE(check.ok) << "root " << root << ": " << check.error;
    // Degradation bookkeeping mirrors the single-node contract: a run is
    // degraded iff some shard actually served from its DRAM fallback.
    if (result.degraded) {
      ASSERT_GT(result.io_failures, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShardedDifferentialSweep,
    ::testing::Values(
        // Fault-free: every generator x shard count, raw chunks.
        ShardDiffCase{"kron", 2, ChunkFormat::kRaw, 0},
        ShardDiffCase{"kron", 4, ChunkFormat::kRaw, 0},
        ShardDiffCase{"kron", 8, ChunkFormat::kRaw, 0},
        ShardDiffCase{"uniform", 2, ChunkFormat::kRaw, 0},
        ShardDiffCase{"uniform", 4, ChunkFormat::kRaw, 0},
        ShardDiffCase{"uniform", 8, ChunkFormat::kRaw, 0},
        // Varint-compressed per-shard chunk stores.
        ShardDiffCase{"kron", 2, ChunkFormat::kVarint, 0},
        ShardDiffCase{"kron", 4, ChunkFormat::kVarint, 0},
        ShardDiffCase{"kron", 8, ChunkFormat::kVarint, 0},
        ShardDiffCase{"uniform", 4, ChunkFormat::kVarint, 0},
        // Injected read errors (1e-3 per read, independent per shard):
        // containment + per-shard fallback must keep the answer exact.
        ShardDiffCase{"kron", 2, ChunkFormat::kRaw, 1e-3},
        ShardDiffCase{"kron", 4, ChunkFormat::kRaw, 1e-3},
        ShardDiffCase{"kron", 8, ChunkFormat::kRaw, 1e-3},
        ShardDiffCase{"uniform", 2, ChunkFormat::kRaw, 1e-3},
        ShardDiffCase{"uniform", 4, ChunkFormat::kRaw, 1e-3},
        ShardDiffCase{"uniform", 8, ChunkFormat::kRaw, 1e-3},
        ShardDiffCase{"kron", 4, ChunkFormat::kVarint, 1e-3},
        ShardDiffCase{"uniform", 8, ChunkFormat::kVarint, 1e-3}));

}  // namespace
}  // namespace sembfs
