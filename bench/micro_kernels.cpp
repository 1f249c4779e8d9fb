// google-benchmark microbenchmarks for the kernels underneath the figures:
// bitmap operations, Kronecker generation, CSR construction, the two BFS
// step directions, and the simulated-NVM read path.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench_common.hpp"
#include "bfs/bottom_up.hpp"
#include "bfs/top_down.hpp"
#include "graph/external_csr.hpp"
#include "graph/kronecker.hpp"
#include "util/bitmap.hpp"
#include "util/prng.hpp"

namespace {

using namespace sembfs;

void BM_BitmapSet(benchmark::State& state) {
  Bitmap bitmap{1 << 20};
  std::size_t i = 0;
  for (auto _ : state) {
    bitmap.set(i & ((1 << 20) - 1));
    i += 7919;
  }
}
BENCHMARK(BM_BitmapSet);

void BM_AtomicBitmapTrySet(benchmark::State& state) {
  AtomicBitmap bitmap{1 << 20};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitmap.try_set(i & ((1 << 20) - 1)));
    i += 7919;
  }
}
BENCHMARK(BM_AtomicBitmapTrySet);

void BM_BitmapCount(benchmark::State& state) {
  Bitmap bitmap{1 << 20};
  for (std::size_t i = 0; i < (1 << 20); i += 3) bitmap.set(i);
  for (auto _ : state) benchmark::DoNotOptimize(bitmap.count());
}
BENCHMARK(BM_BitmapCount);

void BM_Xoroshiro(benchmark::State& state) {
  Xoroshiro128 rng{42};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoroshiro);

void BM_KroneckerEdge(benchmark::State& state) {
  KroneckerParams params;
  params.scale = static_cast<int>(state.range(0));
  params.edge_factor = 16;
  std::vector<Edge> out(1024);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    generate_kronecker_range(params, offset, offset + 1024, out);
    offset += 1024;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_KroneckerEdge)->Arg(16)->Arg(24)->Arg(32);

void BM_CsrBuild(benchmark::State& state) {
  ThreadPool pool{static_cast<std::size_t>(BenchEnv::resolve().threads)};
  KroneckerParams params;
  params.scale = static_cast<int>(state.range(0));
  params.edge_factor = 16;
  const EdgeList edges = generate_kronecker(params, pool);
  for (auto _ : state) {
    const Csr csr = build_csr(edges, CsrBuildOptions{}, pool);
    benchmark::DoNotOptimize(csr.entry_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.edge_count()));
}
BENCHMARK(BM_CsrBuild)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

struct StepFixtureState {
  ThreadPool pool{static_cast<std::size_t>(BenchEnv::resolve().threads)};
  NumaTopology topology{4, 1};
  EdgeList edges;
  ForwardGraph forward;
  BackwardGraph backward;
  BfsStatus status{1};
  Vertex root = 0;

  explicit StepFixtureState(int scale) {
    KroneckerParams params;
    params.scale = scale;
    params.edge_factor = 16;
    edges = generate_kronecker(params, pool);
    const VertexPartition partition{edges.vertex_count(), 4};
    forward = ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
    backward = BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
    status = BfsStatus{edges.vertex_count()};
    while (backward.neighbors(root).empty()) ++root;
  }

  [[nodiscard]] GraphStorage storage() const {
    GraphStorage s;
    s.forward = &forward;
    s.backward = &backward;
    return s;
  }
};

void BM_TopDownFirstLevels(benchmark::State& state) {
  StepFixtureState fx{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    fx.status.reset(fx.root);
    std::int64_t scanned = 0;
    for (int level = 1; level <= 3 && fx.status.frontier_size() > 0;
         ++level) {
      scanned += top_down_step(fx.storage(), fx.status, level, fx.topology,
                               fx.pool)
                     .scanned_edges;
      fx.status.advance(fx.pool);
    }
    benchmark::DoNotOptimize(scanned);
  }
}
BENCHMARK(BM_TopDownFirstLevels)
    ->Arg(14)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BottomUpSweep(benchmark::State& state) {
  StepFixtureState fx{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    fx.status.reset(fx.root);
    // One top-down level to seed a frontier, then one bottom-up sweep.
    top_down_step(fx.storage(), fx.status, 1, fx.topology, fx.pool);
    fx.status.advance(fx.pool);
    benchmark::DoNotOptimize(
        bottom_up_step(&fx.backward, fx.status, 2, fx.topology, fx.pool,
                       1024)
            .scanned_edges);
  }
}
BENCHMARK(BM_BottomUpSweep)
    ->Arg(14)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BottomUpLateLevel(benchmark::State& state) {
  // Late-level sweep: after three top-down levels nearly every vertex is
  // visited, so the word-skip path (one load + compare per 64 vertices)
  // carries almost the whole range.
  StepFixtureState fx{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    state.PauseTiming();
    fx.status.reset(fx.root);
    for (int level = 1; level <= 3 && fx.status.frontier_size() > 0;
         ++level) {
      top_down_step(fx.storage(), fx.status, level, fx.topology, fx.pool);
      fx.status.advance(fx.pool);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        bottom_up_step(&fx.backward, fx.status, 4, fx.topology, fx.pool,
                       1024)
            .scanned_edges);
  }
}
BENCHMARK(BM_BottomUpLateLevel)
    ->Arg(14)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_NvmChunkedRead(benchmark::State& state) {
  const std::string dir = "/tmp/sembfs_micro";
  std::filesystem::create_directories(dir);
  DeviceProfile profile = DeviceProfile::pcie_flash();
  profile.time_scale = 0.0;  // measure the software path, not the sleep
  auto device = std::make_shared<NvmDevice>(profile);
  NvmFile file{device, dir + "/chunked.bin"};
  std::vector<std::byte> payload(1 << 22);
  file.write(0, payload);
  ChunkReader reader{file, static_cast<std::uint32_t>(state.range(0))};
  std::vector<std::byte> out(1 << 16);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.read_range(offset, out));
    offset = (offset + out.size()) % ((1 << 22) - out.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_NvmChunkedRead)->Arg(4096)->Arg(65536);

}  // namespace
