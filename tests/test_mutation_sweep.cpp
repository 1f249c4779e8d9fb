// Mutation differential sweep: seeded insert/delete batches applied
// through the MutableGraph across {generator} x {forward backend} x
// {chunk format} x {fault rate} cells, with a compaction in the middle of
// every sweep. After every publish, a hybrid BFS of the snapshot's merged
// view must be level-exact against a serial reference BFS of a graph
// rebuilt from scratch by a naive mirror of the op log — and the
// traversal tree must pass Graph500 Step-4 validation on the merged edge
// list. Cells with read-error injection must survive via the same
// containment/degradation machinery as the sealed sweep.
//
// Everything derives from kSeed; the case printer emits it on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "bfs/reference_bfs.hpp"
#include "bfs/validate.hpp"
#include "engine/bfs_program.hpp"
#include "graph/csr.hpp"
#include "graph/kronecker.hpp"
#include "graph/mutable_graph.hpp"
#include "graph/uniform.hpp"
#include "graph_fixtures.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

constexpr std::uint64_t kSeed = 0x5eedf00d;

/// The forward layout of a generation: DRAM, fully offloaded, or offloaded
/// with lists of at most 64 entries kept in DRAM.
enum class Forward { kDram, kExternal, kTiered };

struct MutationCase {
  const char* generator;  // "kron" | "uniform"
  Forward forward = Forward::kDram;
  ChunkFormat chunk_format = ChunkFormat::kRaw;
  double read_error_rate = 0.0;
  /// >= 0: serve the bottom-up side from a HybridBackwardGraph with this
  /// many DRAM edges per vertex instead of the full DRAM backward graph.
  std::int64_t backward_dram_edges = -1;

  friend std::ostream& operator<<(std::ostream& os, const MutationCase& c) {
    return os << c.generator << "_fwd" << static_cast<int>(c.forward)
              << "_fmt" << to_string(c.chunk_format) << "_err"
              << c.read_error_rate << "_hb" << c.backward_dram_edges
              << "_seed" << kSeed;
  }
};

// Serial mirror of the tombstone semantics: remove kills every present
// copy of the pair, insert appends one copy.
void apply_ops_to_mirror(std::vector<Edge>& mirror,
                         std::span<const EdgeOp> ops) {
  for (const EdgeOp& op : ops) {
    if (op.kind == EdgeOp::Kind::Insert) {
      mirror.push_back(Edge{op.u, op.v});
    } else {
      const auto same_pair = [&](const Edge& e) {
        return (e.u == op.u && e.v == op.v) || (e.u == op.v && e.v == op.u);
      };
      mirror.erase(std::remove_if(mirror.begin(), mirror.end(), same_pair),
                   mirror.end());
    }
  }
}

// A seeded batch: mostly inserts between random endpoints, plus removals
// of pairs currently present (so tombstones actually hide base copies).
std::vector<EdgeOp> make_batch(std::mt19937_64& rng, Vertex n,
                               const std::vector<Edge>& mirror) {
  std::uniform_int_distribution<Vertex> pick{0, n - 1};
  std::vector<EdgeOp> ops;
  for (int i = 0; i < 48; ++i) {
    const Vertex u = pick(rng);
    Vertex v = pick(rng);
    while (v == u) v = pick(rng);
    ops.push_back(EdgeOp::insert(u, v));
  }
  std::uniform_int_distribution<std::size_t> pick_edge{0, mirror.size() - 1};
  for (int i = 0; i < 16 && !mirror.empty(); ++i) {
    const Edge& e = mirror[pick_edge(rng)];
    if (e.u == e.v) continue;  // generators emit self-loops; ops reject them
    ops.push_back(EdgeOp::remove(e.u, e.v));
  }
  return ops;
}

class MutationSweep : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationSweep, MergedViewMatchesRebuiltReference) {
  const MutationCase c = GetParam();
  SCOPED_TRACE(::testing::Message() << "repro: case {" << c << "}");
  ThreadPool pool{4};

  EdgeList base;
  if (std::string_view{c.generator} == "kron") {
    base = generate_kronecker(fixtures::small_kronecker(9, 8, kSeed), pool);
  } else {
    UniformParams params;
    params.scale = 9;
    params.edge_factor = 8;
    params.seed = kSeed;
    base = generate_uniform(params, pool);
  }
  const Vertex n = base.vertex_count();
  std::vector<Edge> mirror{base.edges().begin(), base.edges().end()};

  testutil::ScopedTestDir scratch{"mutsweep"};
  auto device = std::make_shared<NvmDevice>(DeviceProfile::dram());
  MutableGraphConfig config;
  config.forward = c.forward == Forward::kDram ? MutableForwardKind::kDram
                                               : MutableForwardKind::kExternal;
  config.tier_limit = c.forward == Forward::kTiered ? 64 : 0;
  config.numa_nodes = 4;
  config.chunk_format = c.chunk_format;
  config.backward_dram_edges = c.backward_dram_edges;
  const bool offloads =
      c.forward != Forward::kDram || c.backward_dram_edges >= 0;
  if (offloads) {
    config.workdir = scratch.path();
    config.device = device;
  }
  MutableGraph graph{base, config, pool};

  // Armed after generation 0 is built so only traversals see faults.
  FaultPlan plan;
  plan.seed = kSeed;
  plan.read_error_rate = c.read_error_rate;
  if (plan.enabled()) device->set_fault_plan(plan);

  const BfsConfig bfs;

  Vertex root = 0;
  {
    const Csr full = build_csr(base, CsrBuildOptions{}, pool);
    while (full.degree(root) == 0) ++root;
  }

  std::mt19937_64 rng{kSeed};
  const auto check_snapshot =
      [&](const std::shared_ptr<const GraphSnapshot>& snap,
          const char* what) {
        HybridBfsRunner runner{snap->storage(), NumaTopology{4, 1}, pool};
        const BfsResult result = runner.run(root, bfs);
        EdgeList merged{n, mirror};
        const Csr merged_csr = build_csr(merged, CsrBuildOptions{}, pool);
        const ReferenceBfsResult ref = reference_bfs(merged_csr, root);
        ASSERT_EQ(result.visited, ref.visited) << what;
        for (Vertex v = 0; v < n; ++v)
          ASSERT_EQ(result.level[v], ref.level[v])
              << what << " version " << snap->version() << " v " << v;
        const ValidationResult validation =
            validate_bfs(merged, root, result.parent, result.level);
        ASSERT_TRUE(validation.ok) << what << ": " << validation.error;
      };

  ASSERT_NO_FATAL_FAILURE(check_snapshot(graph.snapshot(), "base"));
  for (int round = 0; round < 3; ++round) {
    const std::vector<EdgeOp> ops = make_batch(rng, n, mirror);
    graph.apply(ops);
    apply_ops_to_mirror(mirror, ops);
    ASSERT_NO_FATAL_FAILURE(
        check_snapshot(graph.snapshot(), "merged view"));
    if (round == 1) {
      // Compact mid-sweep: the rebuilt generation must serve the exact
      // same answers, and later batches layer over the new base.
      graph.compact();
      ASSERT_NO_FATAL_FAILURE(
          check_snapshot(graph.snapshot(), "post-compaction"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MutationSweep,
    ::testing::Values(
        // Fault-free: every generator x forward-backend cell on raw chunks.
        MutationCase{"kron", Forward::kDram},
        MutationCase{"kron", Forward::kExternal},
        MutationCase{"kron", Forward::kTiered},
        MutationCase{"uniform", Forward::kDram},
        MutationCase{"uniform", Forward::kExternal},
        MutationCase{"uniform", Forward::kTiered},
        // Varint-compressed adjacency chunks on the NVM-backed tiers.
        MutationCase{"kron", Forward::kExternal,
                     ChunkFormat::kVarint},
        MutationCase{"kron", Forward::kTiered,
                     ChunkFormat::kVarint},
        MutationCase{"uniform", Forward::kExternal,
                     ChunkFormat::kVarint},
        // Hybrid backward generations: the delta-aware bottom-up scan
        // reads DRAM prefixes + NVM spill with mutations layered on top.
        MutationCase{"kron", Forward::kExternal,
                     ChunkFormat::kRaw, 0.0, /*backward_dram_edges=*/2},
        // Read-error injection (1e-3 per read): mutation answers must
        // survive via containment + degraded retries, raw and compressed.
        MutationCase{"kron", Forward::kExternal,
                     ChunkFormat::kRaw, 1e-3},
        MutationCase{"uniform", Forward::kTiered,
                     ChunkFormat::kRaw, 1e-3},
        MutationCase{"kron", Forward::kExternal,
                     ChunkFormat::kVarint, 1e-3}));

}  // namespace
}  // namespace sembfs
