#include "graph/external_csr.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "bfs/reference_bfs.hpp"
#include "engine/bfs_program.hpp"
#include "graph_fixtures.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class IoAggregationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = generate_kronecker(fixtures::small_kronecker(10, 8, 51), pool_);
    partition_ = VertexPartition{edges_.vertex_count(), 2};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    external_ = std::make_unique<ExternalForwardGraph>(forward_, device_,
                                                       dir_.path());
  }
  /// The merged batch read, run to completion. Returns the device
  /// requests issued.
  std::uint64_t read_batch(
      ExternalCsrPartition& part, std::span<const Vertex> batch,
      std::vector<std::vector<Vertex>>& out,
      std::uint32_t merge_gap_bytes = kMergeGapBytes,
      std::uint32_t max_request_bytes = kMaxRequestBytes) {
    return part
        .start_fetch_neighbors_batch(batch, scheduler_, RetryPolicy{},
                                     merge_gap_bytes, max_request_bytes)
        .wait(out);
  }

  ThreadPool pool_{4};
  testutil::ScopedTestDir dir_{"agg"};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<ExternalForwardGraph> external_;
  // Declared after external_, so it is joined before the files go away.
  IoScheduler scheduler_{4};
};

/// Device requests the per-vertex primitive fetch_neighbors issues for the
/// same expansions as a top-down-only traversal: every reached vertex read
/// from every partition.
std::uint64_t per_vertex_requests(ExternalForwardGraph& external,
                                  const BfsResult& traversal) {
  std::uint64_t requests = 0;
  std::vector<Vertex> scratch;
  for (Vertex v = 0; v < external.vertex_count(); ++v) {
    if (traversal.level[v] < 0) continue;
    for (std::size_t k = 0; k < external.node_count(); ++k)
      requests += external.partition(k).fetch_neighbors(v, scratch);
  }
  return requests;
}

TEST_F(IoAggregationTest, BatchedFetchMatchesPerVertexFetch) {
  ExternalCsrPartition& part = external_->partition(0);
  std::vector<Vertex> batch;
  for (Vertex v = 0; v < edges_.vertex_count(); v += 7) batch.push_back(v);

  std::vector<std::vector<Vertex>> batched;
  read_batch(part, batch, batched);

  std::vector<Vertex> single;
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    part.fetch_neighbors(batch[i], single);
    ASSERT_EQ(batched[i], single) << "v=" << batch[i];
  }
}

TEST_F(IoAggregationTest, UnsortedAndDuplicateBatch) {
  ExternalCsrPartition& part = external_->partition(0);
  const std::vector<Vertex> batch = {90, 3, 90, 512, 3, 0};
  std::vector<std::vector<Vertex>> batched;
  read_batch(part, batch, batched);
  std::vector<Vertex> single;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    part.fetch_neighbors(batch[i], single);
    ASSERT_EQ(batched[i], single) << "slot " << i;
  }
}

TEST_F(IoAggregationTest, EmptyBatchIssuesNothing) {
  ExternalCsrPartition& part = external_->partition(0);
  device_->stats().reset();
  std::vector<std::vector<Vertex>> batched;
  EXPECT_EQ(read_batch(part, {}, batched), 0u);
  EXPECT_EQ(device_->stats().request_count(), 0u);
}

TEST_F(IoAggregationTest, AggregationReducesRequestCount) {
  ExternalCsrPartition& part = external_->partition(0);
  std::vector<Vertex> batch;
  for (Vertex v = 100; v < 164; ++v) batch.push_back(v);  // 64 consecutive

  std::uint64_t per_vertex = 0;
  std::vector<Vertex> single;
  for (const Vertex v : batch) per_vertex += part.fetch_neighbors(v, single);

  std::vector<std::vector<Vertex>> batched;
  const std::uint64_t aggregated =
      read_batch(part, batch, batched);
  EXPECT_LT(aggregated, per_vertex / 4);
}

TEST_F(IoAggregationTest, ZeroGapStillCorrect) {
  ExternalCsrPartition& part = external_->partition(0);
  std::vector<Vertex> batch = {5, 6, 7, 1000, 1001};
  std::vector<std::vector<Vertex>> batched;
  read_batch(part, batch, batched, /*merge_gap_bytes=*/0);
  std::vector<Vertex> single;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    part.fetch_neighbors(batch[i], single);
    ASSERT_EQ(batched[i], single);
  }
}

TEST_F(IoAggregationTest, TinyMaxRequestStillCorrect) {
  ExternalCsrPartition& part = external_->partition(0);
  std::vector<Vertex> batch;
  for (Vertex v = 0; v < 64; ++v) batch.push_back(v);
  std::vector<std::vector<Vertex>> batched;
  read_batch(part, batch, batched, 4096, /*max_request=*/64);
  std::vector<Vertex> single;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    part.fetch_neighbors(batch[i], single);
    ASSERT_EQ(batched[i], single);
  }
}

TEST_F(IoAggregationTest, AllEmptyBatchNeedsOnlyIndexReads) {
  ExternalCsrPartition& part = external_->partition(0);
  const Csr& dram = forward_.partition(0);
  std::vector<Vertex> batch;
  for (Vertex v = 0; v < edges_.vertex_count() && batch.size() < 8; ++v)
    if (dram.degree(v) == 0) batch.push_back(v);
  ASSERT_FALSE(batch.empty()) << "fixture needs isolated vertices";

  device_->stats().reset();
  std::vector<std::vector<Vertex>> batched(3, std::vector<Vertex>{Vertex{7}});
  const std::uint64_t requests = read_batch(part, batch, batched);
  ASSERT_EQ(batched.size(), batch.size());
  for (const auto& adjacency : batched) EXPECT_TRUE(adjacency.empty());
  EXPECT_GT(requests, 0u);  // the index phase still runs
  EXPECT_EQ(device_->stats().request_count(), requests);
}

TEST_F(IoAggregationTest, AdjacencyLargerThanMaxRequestStillCorrect) {
  ExternalCsrPartition& part = external_->partition(0);
  const Csr& dram = forward_.partition(0);
  Vertex hub = 0;
  for (Vertex v = 1; v < edges_.vertex_count(); ++v)
    if (dram.degree(v) > dram.degree(hub)) hub = v;
  const std::uint64_t hub_bytes =
      static_cast<std::uint64_t>(dram.degree(hub)) * sizeof(Vertex);
  ASSERT_GT(hub_bytes, 256u) << "fixture needs a hub";

  // A max_request smaller than the hub's own adjacency: merging is
  // all-or-nothing per slot, so the run survives merge_ranges intact and
  // is sliced into <= max_request device reads at issue time.
  const std::vector<Vertex> batch = {hub, 1, hub};
  std::vector<std::vector<Vertex>> batched;
  read_batch(part, batch, batched, 4096, /*max_request=*/256);
  std::vector<Vertex> single;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    part.fetch_neighbors(batch[i], single);
    ASSERT_EQ(batched[i], single) << "slot " << i;
  }
}

TEST_F(IoAggregationTest, OversizeRunSplitsAtRequestCap) {
  // Regression: a single adjacency run longer than max_request used to be
  // issued as ONE unsplit device request, silently violating the cap the
  // caller set to bound per-request device latency.
  ExternalCsrPartition& part = external_->partition(0);
  const Csr& dram = forward_.partition(0);
  Vertex hub = 0;
  for (Vertex v = 1; v < edges_.vertex_count(); ++v)
    if (dram.degree(v) > dram.degree(hub)) hub = v;
  const std::uint64_t hub_bytes =
      static_cast<std::uint64_t>(dram.degree(hub)) * sizeof(Vertex);
  constexpr std::uint32_t kCap = 256;
  ASSERT_GT(hub_bytes, kCap) << "fixture needs a hub";

  const std::vector<Vertex> batch = {hub};
  std::vector<std::vector<Vertex>> batched;
  const std::uint64_t capped =
      read_batch(part, batch, batched, 4096, kCap);
  // Index phase: one 16-byte request. Value phase: the hub's run sliced at
  // the cap.
  const std::uint64_t value_requests = (hub_bytes + kCap - 1) / kCap;
  EXPECT_EQ(capped, 1 + value_requests);
  std::vector<Vertex> single;
  part.fetch_neighbors(hub, single);
  ASSERT_EQ(batched[0], single);

  // An uncapped fetch of the same batch needs far fewer requests — the cap
  // is what forces the split, not the run length.
  const std::uint64_t uncapped =
      read_batch(part, batch, batched, 4096, 1 << 20);
  EXPECT_LT(uncapped, capped);
}

TEST_F(IoAggregationTest, BatchAtPartitionSourceBoundary) {
  for (std::size_t k = 0; k < external_->node_count(); ++k) {
    ExternalCsrPartition& part = external_->partition(k);
    const VertexRange range = part.source_range();
    const std::vector<Vertex> batch = {range.begin, range.end - 1,
                                       range.begin};
    std::vector<std::vector<Vertex>> batched;
    read_batch(part, batch, batched);
    std::vector<Vertex> single;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      part.fetch_neighbors(batch[i], single);
      ASSERT_EQ(batched[i], single) << "node " << k << " slot " << i;
    }
  }
}

TEST_F(IoAggregationTest, DuplicateHeavyBatchDoesNotMultiplyRequests) {
  ExternalCsrPartition& part = external_->partition(0);
  Vertex v = 0;
  while (forward_.partition(0).degree(v) == 0) ++v;
  const std::vector<Vertex> once = {v};
  std::vector<std::vector<Vertex>> batched;
  const std::uint64_t single_requests =
      read_batch(part, once, batched);

  const std::vector<Vertex> many(64, v);
  const std::uint64_t dup_requests =
      read_batch(part, many, batched);
  // Contained ranges merge: 64 copies cost the same I/O as one.
  EXPECT_EQ(dup_requests, single_requests);
  for (const auto& adjacency : batched) ASSERT_EQ(adjacency, batched.front());
}

TEST_F(IoAggregationTest, ManyPendingBatchesInFlightAtOnce) {
  ExternalCsrPartition& part = external_->partition(0);
  IoScheduler scheduler{3};
  constexpr std::size_t kBatches = 16;
  std::vector<std::vector<Vertex>> batches(kBatches);
  std::vector<PendingNeighborsBatch> pending;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (Vertex v = static_cast<Vertex>(b); v < edges_.vertex_count();
         v += kBatches)
      batches[b].push_back(v);
    pending.push_back(
        part.start_fetch_neighbors_batch(batches[b], scheduler, RetryPolicy{}));
  }
  std::vector<std::vector<Vertex>> out;
  std::vector<Vertex> single;
  for (std::size_t b = 0; b < kBatches; ++b) {
    pending[b].wait(out);
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      part.fetch_neighbors(batches[b][i], single);
      ASSERT_EQ(out[i], single) << "batch " << b << " slot " << i;
    }
  }
}

TEST_F(IoAggregationTest, ChunkCacheCutsRepeatBatchRequests) {
  ExternalCsrPartition& part = external_->partition(0);
  std::vector<Vertex> batch;
  for (Vertex v = 0; v < edges_.vertex_count(); v += 3) batch.push_back(v);

  ChunkCache& cache = external_->enable_chunk_cache(8 << 20);
  std::vector<std::vector<Vertex>> cold_out;
  const std::uint64_t cold = read_batch(part, batch, cold_out);
  std::vector<std::vector<Vertex>> warm_out;
  const std::uint64_t warm = read_batch(part, batch, warm_out);
  EXPECT_LT(warm, cold);
  EXPECT_GT(cache.stats().hits, 0u);
  for (std::size_t i = 0; i < batch.size(); ++i)
    ASSERT_EQ(warm_out[i], cold_out[i]);

  // Detaching restores the direct path and its request counts.
  external_->disable_chunk_cache();
  EXPECT_EQ(part.cache(), nullptr);
  std::vector<std::vector<Vertex>> plain_out;
  EXPECT_EQ(read_batch(part, batch, plain_out), cold);
}

TEST_F(IoAggregationTest, EnableChunkCacheIsIdempotentPerCapacity) {
  ChunkCache& first = external_->enable_chunk_cache(1 << 20);
  ChunkCache& again = external_->enable_chunk_cache(1 << 20);
  EXPECT_EQ(&first, &again);  // unchanged capacity keeps the warm cache
  // A different capacity keeps it too: a cache is never replaced while a
  // traversal may be reading through it.
  ChunkCache& kept = external_->enable_chunk_cache(2 << 20);
  EXPECT_EQ(&kept, &first);
  EXPECT_EQ(kept.capacity_bytes(), std::size_t{1} << 20);
  // The scheduler is created once, sized from the device (dram: 64
  // channels) or the workers, whichever is more, and only ever grows.
  IoScheduler& sched = external_->io_scheduler(4);
  EXPECT_EQ(sched.queue_depth(), 64u);
  EXPECT_EQ(&sched, &external_->io_scheduler(2));
  EXPECT_EQ(&sched, &external_->io_scheduler(96));
  EXPECT_EQ(sched.queue_depth(), 96u);
}

TEST_F(IoAggregationTest, AggregatedBfsMatchesReference) {
  const BackwardGraph backward =
      BackwardGraph::build(edges_, partition_, CsrBuildOptions{}, pool_);
  const Csr full = build_csr(edges_, CsrBuildOptions{}, pool_);
  GraphStorage storage;
  storage.forward = external_.get();
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{2, 2}, pool_};

  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;  // maximize the aggregated path

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const BfsResult result = runner.run(root, config);
  const ReferenceBfsResult ref = reference_bfs(full, root);
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]) << "v=" << v;
}

TEST_F(IoAggregationTest, AggregatedBfsIssuesFewerRequests) {
  const BackwardGraph backward =
      BackwardGraph::build(edges_, partition_, CsrBuildOptions{}, pool_);
  const Csr full = build_csr(edges_, CsrBuildOptions{}, pool_);
  GraphStorage storage;
  storage.forward = external_.get();
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{2, 2}, pool_};

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;

  BfsConfig aggregated;
  aggregated.mode = BfsMode::TopDownOnly;
  const BfsResult traversal = runner.run(root, aggregated);
  const std::uint64_t merged = traversal.nvm_requests;
  // Baseline: the same expansions read one vertex at a time.
  const std::uint64_t chunked = per_vertex_requests(*external_, traversal);
  EXPECT_LT(merged, chunked);
}

TEST_F(IoAggregationTest, AggregationRaisesAvgRequestSize) {
  const BackwardGraph backward =
      BackwardGraph::build(edges_, partition_, CsrBuildOptions{}, pool_);
  GraphStorage storage;
  storage.forward = external_.get();
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{2, 2}, pool_};

  Vertex root = 0;
  while (backward.neighbors(root).empty()) ++root;

  BfsConfig aggregated;
  aggregated.mode = BfsMode::TopDownOnly;
  device_->stats().reset();
  const BfsResult traversal = runner.run(root, aggregated);
  const double merged_rq = device_->stats().snapshot().avg_request_sectors;

  // Baseline: the same expansions read one vertex at a time.
  device_->stats().reset();
  per_vertex_requests(*external_, traversal);
  const double plain_rq = device_->stats().snapshot().avg_request_sectors;
  EXPECT_GT(merged_rq, plain_rq);  // the Figure-13 "aggregate I/O" effect
}

}  // namespace
}  // namespace sembfs
