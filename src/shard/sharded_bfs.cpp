#include "shard/sharded_bfs.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>

#include "bfs/sweep.hpp"
#include "obs/metrics.hpp"
#include "util/bitmap.hpp"
#include "util/timer.hpp"

namespace sembfs::shard {

namespace {

/// Sources per merged top-down read.
constexpr std::size_t kFetchBatch = 256;

}  // namespace

ShardedBfs::ShardedBfs(const EdgeList& edges, std::size_t shards,
                       ThreadPool& pool, const DeviceProfile& profile,
                       const std::string& workdir,
                       const ShardNodeConfig& node_config,
                       std::size_t grid_rows)
    : grid_(edges.vertex_count(), shards, grid_rows), pool_(pool) {
  SEMBFS_EXPECTS(pool.size() >= shards);
  nodes_.reserve(shards);
  // Blocks are built one at a time: build_csr_filtered runs on the pool,
  // and the pool-exclusivity contract forbids overlapping regions. Sorted
  // adjacency makes the bottom-up first hit, and with it the parents and
  // claim bytes, independent of the parallel scatter's thread timing.
  CsrBuildOptions build_options;
  build_options.sort_neighbors = true;
  for (std::size_t k = 0; k < shards; ++k) {
    nodes_.push_back(std::make_unique<ShardNode>(
        build_csr_filtered(edges, grid_.source_range(k),
                           grid_.destination_range(k), build_options, pool_),
        profile, workdir + "/shard" + std::to_string(k), k, node_config));
  }
}

std::uint64_t ShardedBfs::nvm_byte_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->nvm_byte_size();
  return total;
}

std::uint64_t ShardedBfs::max_shard_nvm_byte_size() const noexcept {
  std::uint64_t max = 0;
  for (const auto& node : nodes_)
    max = std::max(max, node->nvm_byte_size());
  return max;
}

std::uint64_t ShardedBfs::max_shard_dram_byte_size() const noexcept {
  std::uint64_t max = 0;
  for (const auto& node : nodes_)
    max = std::max(max, node->dram_byte_size());
  return max;
}

void ShardedBfs::arm_fault_plans(const FaultPlan& base) {
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    if (!base.enabled()) {
      nodes_[k]->clear_fault_plan();
      continue;
    }
    FaultPlan plan = base;
    plan.seed = base.seed + k;  // independent per-shard fault sequences
    nodes_[k]->set_fault_plan(plan);
  }
}

void ShardedBfs::set_fault_plan(std::size_t shard, const FaultPlan& plan) {
  SEMBFS_EXPECTS(shard < nodes_.size());
  nodes_[shard]->set_fault_plan(plan);
}

ShardedBfsResult ShardedBfs::run(Vertex root,
                                 const ShardedBfsConfig& config) {
  const Vertex n = grid_.vertex_count();
  SEMBFS_EXPECTS(root >= 0 && root < n);
  const std::size_t ranks = grid_.shard_count();

  ShardedBfsResult result;
  result.root = root;
  result.parent.assign(static_cast<std::size_t>(n), kNoVertex);
  result.level.assign(static_cast<std::size_t>(n), -1);

  MessageBus bus{ranks};

  // Shared per-level coordination state (the "allreduce" side channel).
  struct Shared {
    std::atomic<std::int64_t> next_total{0};
    std::atomic<int> direction{0};  // 0 = top-down, 1 = bottom-up
    std::atomic<bool> done{false};
    std::atomic<std::int64_t> degree_sum{0};
    std::atomic<std::int64_t> visited{0};
    std::atomic<std::uint64_t> exchange_ns{0};
    std::atomic<std::uint64_t> compute_ns{0};
    std::atomic<std::uint64_t> nvm_requests{0};
    std::atomic<std::uint64_t> io_failures{0};
    std::atomic<std::uint64_t> degraded_shards{0};
    std::atomic<bool> failed{false};
  } shared;
  shared.direction.store(
      config.mode == ShardedBfsConfig::Mode::BottomUpOnly ? 1 : 0);

  // First unrecoverable shard error. A throwing rank must NOT unwind out
  // of the parallel region — its peers would spin forever at the next
  // barrier — so errors are parked here and rethrown on the main thread
  // once the level completes.
  std::exception_ptr error;
  std::mutex error_mutex;

  // Per-shard run state. Each shard only ever touches its own entry;
  // owners additionally write their exclusive parent/level block.
  std::vector<std::vector<Vertex>> frontier(ranks);  // owned, ascending
  std::vector<std::vector<Vertex>> next(ranks);
  std::vector<AtomicBitmap> replica;  // visited over the source range
  replica.reserve(ranks);
  for (std::size_t k = 0; k < ranks; ++k)
    replica.emplace_back(static_cast<std::size_t>(n));
  std::vector<Bitmap> membership(ranks);  // frontier over the dest range
  for (auto& m : membership) m.resize(static_cast<std::size_t>(n));

  {
    const std::size_t owner = grid_.owner_of(root);
    frontier[owner].push_back(root);
    result.parent[static_cast<std::size_t>(root)] = root;
    result.level[static_cast<std::size_t>(root)] = 0;
  }
  std::int64_t cur_frontier_total = 1;

  Timer timer;
  std::int32_t level = 1;
  while (cur_frontier_total > 0 && level <= n) {
    shared.next_total.store(0);
    shared.exchange_ns.store(0);
    shared.compute_ns.store(0);
    shared.nvm_requests.store(0);
    shared.io_failures.store(0);
    shared.degraded_shards.store(0);
    const Direction direction = shared.direction.load() == 0
                                    ? Direction::TopDown
                                    : Direction::BottomUp;
    // Per-level byte deltas: snapshot the phase totals before the level
    // (no sends are in flight between levels).
    const std::uint64_t frontier_bytes0 =
        bus.remote_bytes(Phase::kFrontier);
    const std::uint64_t membership_bytes0 =
        bus.remote_bytes(Phase::kMembership);
    const std::uint64_t claim_bytes0 = bus.remote_bytes(Phase::kClaims);
    const std::uint64_t messages0 = bus.total_messages();

    pool_.run(ranks, [&](std::size_t k) {
      ShardNode& node = *nodes_[k];
      const VertexRange owner_range = grid_.owner_block(k);
      const VertexRange source_range = grid_.source_range(k);
      auto& my_next = next[k];
      my_next.clear();
      double exchange_s = 0.0;
      double compute_s = 0.0;
      Timer phase_timer;

      // Phase A — frontier publish: one encode, multicast to the grid
      // row holding this owner's vertices as sources. Receivers fold the
      // messages into their visited replica; on top-down levels the same
      // messages are the expansion input.
      {
        const std::vector<std::byte> encoded = encode_vertex_set(
            frontier[k], owner_range, config.frontier_encoding);
        for (const std::size_t to :
             grid_.row_members(grid_.publish_row(k)))
          bus.send(k, to, Phase::kFrontier, encoded);
      }
      bus.barrier();  // all publishes delivered
      std::vector<Vertex> row_frontier;
      for (const auto& msg : bus.drain_all(k, Phase::kFrontier)) {
        decode_vertex_set(msg.payload, [&](Vertex v) {
          SEMBFS_ASSERT(source_range.contains(v));
          replica[k].set(static_cast<std::size_t>(v));
          if (direction == Direction::TopDown && node.has_local_edges(v))
            row_frontier.push_back(v);
        });
      }
      exchange_s += phase_timer.seconds();

      // Phase B — bottom-up membership: owners multicast their frontier
      // down their own grid column, giving every shard the frontier
      // restricted to its destination block.
      if (direction == Direction::BottomUp) {
        phase_timer.reset();
        const std::vector<std::byte> encoded = encode_vertex_set(
            frontier[k], owner_range, config.frontier_encoding);
        for (const std::size_t to : grid_.col_members(grid_.col_of(k)))
          bus.send(k, to, Phase::kMembership, encoded);
        bus.barrier();  // all membership messages delivered
        membership[k].clear();
        for (const auto& msg : bus.drain_all(k, Phase::kMembership)) {
          decode_vertex_set(msg.payload, [&](Vertex v) {
            membership[k].set(static_cast<std::size_t>(v));
          });
        }
        exchange_s += phase_timer.seconds();
      }

      // Phase C — claim generation against this shard's edge block.
      phase_timer.reset();
      std::vector<Claim> claims;  // children non-decreasing when sent
      std::uint64_t requests = 0;
      std::uint64_t failures = 0;
      bool fell_back = false;
      if (direction == Direction::TopDown) {
        // One claim per cut edge — the O(frontier edges) traffic the
        // direction switch exists to collapse. The only phase that reads
        // the shard's NVM copy: read_batches posts the merged reads of
        // kFetchBatch sources at a time to the shard's scheduler, the next
        // batch's in flight while this one's claims are generated.
        const auto emit = [&](Vertex v, std::span<const Vertex> adjacency) {
          for (const Vertex w : adjacency) claims.push_back(Claim{w, v});
        };
        std::size_t cursor = 0;
        const auto next_batch = [&]() -> std::span<const Vertex> {
          if (failures > 0) return {};  // the level is redone below
          const std::size_t begin = cursor;
          cursor = std::min(cursor + kFetchBatch, row_frontier.size());
          return std::span<const Vertex>{row_frontier}.subspan(
              begin, cursor - begin);
        };
        requests = read_batches(node.nvm_block(), node.reads(), next_batch,
                                emit, [&] { ++failures; });
        if (failures > 0 && node.dram_fallback()) {
          // Degraded level: redo the expansion from the DRAM copy, so the
          // shard sends exactly a clean run's claims; only its stats show
          // the failure.
          fell_back = true;
          claims.clear();
          for (const Vertex v : row_frontier) emit(v, node.local_neighbors(v));
        } else if (failures > 0) {
          // Retries exhausted and no DRAM fallback: this shard stops
          // expanding but keeps walking the barrier protocol so its
          // peers finish the level; the error surfaces after the region.
          const std::lock_guard<std::mutex> lock{error_mutex};
          if (!error)
            error = std::make_exception_ptr(NvmIoError(
                "shard " + std::to_string(k) +
                ": top-down read failed after retries (DRAM fallback "
                "disabled)"));
          shared.failed.store(true);
        }
        // Sorted by (child, parent): the run-flush below needs children
        // grouped by owner, and the first claim the owner sees for a
        // child is then the smallest parent from the lowest sender rank —
        // independent of generation order. Duplicate children stay on the
        // wire deliberately: the message volume IS one claim per cut
        // edge, the quantity the direction switch collapses.
        std::sort(claims.begin(), claims.end(),
                  [](const Claim& a, const Claim& b) {
                    return a.child != b.child ? a.child < b.child
                                              : a.parent < b.parent;
                  });
      } else {
        // Word-skip sweep of this block's unvisited sources, probing the
        // DRAM copy of the block against the membership bitmap with
        // first-hit exit: at most one claim per source — O(new vertices)
        // traffic — and no device I/O.
        const Bitmap& member = membership[k];
        sweep_unvisited(replica[k], source_range.begin, source_range.end,
                        [&](Vertex w) {
                          for (const Vertex v : node.local_neighbors(w)) {
                            if (member.test(static_cast<std::size_t>(v))) {
                              claims.push_back(Claim{w, v});
                              break;
                            }
                          }
                        });
      }

      // Claims are sorted by child and owner blocks are contiguous, so
      // per-owner messages are contiguous runs.
      {
        std::vector<Claim> outbox;
        std::size_t to = ranks;  // invalid
        VertexRange to_range{};
        const auto flush = [&] {
          if (outbox.empty()) return;
          bus.send(k, to, Phase::kClaims,
                   encode_claims(outbox, to_range));
          outbox.clear();
        };
        for (const Claim& claim : claims) {
          if (to == ranks || !to_range.contains(claim.child)) {
            flush();
            to = grid_.owner_of(claim.child);
            to_range = grid_.owner_block(to);
          }
          outbox.push_back(claim);
        }
        flush();
      }
      compute_s += phase_timer.seconds();
      bus.barrier();  // all claims delivered

      // Claim resolution — only the owner writes its block's BFS state,
      // draining in the bus's fixed sender order so the first claim per
      // child is deterministic.
      phase_timer.reset();
      for (const auto& msg : bus.drain_all(k, Phase::kClaims)) {
        decode_claims(msg.payload, [&](Vertex child, Vertex parent) {
          SEMBFS_ASSERT(owner_range.contains(child));
          auto& slot = result.parent[static_cast<std::size_t>(child)];
          if (slot == kNoVertex) {
            slot = parent;
            result.level[static_cast<std::size_t>(child)] = level;
            my_next.push_back(child);
          }
        });
      }
      // Per-sender runs are sorted but interleave across senders; the
      // next publish requires ascending order.
      std::sort(my_next.begin(), my_next.end());
      compute_s += phase_timer.seconds();

      shared.next_total.fetch_add(
          static_cast<std::int64_t>(my_next.size()));
      shared.exchange_ns.fetch_add(
          static_cast<std::uint64_t>(exchange_s * 1e9));
      shared.compute_ns.fetch_add(
          static_cast<std::uint64_t>(compute_s * 1e9));
      shared.nvm_requests.fetch_add(requests);
      shared.io_failures.fetch_add(failures);
      if (fell_back) shared.degraded_shards.fetch_add(1);
      bus.barrier();  // all claims resolved, counters visible

      if (k == 0) {
        const std::int64_t next_total = shared.next_total.load();
        ShardLevelStats stats;
        stats.level = level;
        stats.direction = direction;
        stats.frontier_vertices = cur_frontier_total;
        stats.claimed_vertices = next_total;
        stats.frontier_bytes =
            bus.remote_bytes(Phase::kFrontier) - frontier_bytes0;
        stats.membership_bytes =
            bus.remote_bytes(Phase::kMembership) - membership_bytes0;
        stats.claim_bytes = bus.remote_bytes(Phase::kClaims) - claim_bytes0;
        stats.remote_bytes = stats.frontier_bytes +
                             stats.membership_bytes + stats.claim_bytes;
        stats.remote_messages = bus.total_messages() - messages0;
        stats.exchange_seconds =
            static_cast<double>(shared.exchange_ns.load()) * 1e-9;
        stats.compute_seconds =
            static_cast<double>(shared.compute_ns.load()) * 1e-9;
        stats.nvm_requests = shared.nvm_requests.load();
        stats.io_failures = shared.io_failures.load();
        stats.degraded_shards = shared.degraded_shards.load();
        result.levels.push_back(stats);

        if (config.mode == ShardedBfsConfig::Mode::Hybrid) {
          PolicyInput in;
          in.current = direction;
          in.n_all = n;
          in.prev_frontier = cur_frontier_total;
          in.cur_frontier = next_total;
          shared.direction.store(
              config.policy.decide(in) == Direction::TopDown ? 0 : 1);
        }
        shared.done.store(next_total == 0);
      }
      bus.barrier();  // stats recorded, decision published
    });

    if (shared.failed.load()) std::rethrow_exception(error);
    cur_frontier_total = shared.next_total.load();
    for (std::size_t k = 0; k < ranks; ++k) frontier[k].swap(next[k]);
    ++level;
    if (shared.done.load()) break;
  }
  result.seconds = timer.seconds();
  result.depth = level - 1;
  result.total_remote_bytes = bus.total_remote_bytes();
  result.total_remote_messages = bus.total_messages();
  for (const ShardLevelStats& stats : result.levels) {
    result.io_failures += stats.io_failures;
    result.degraded = result.degraded || stats.degraded_shards > 0;
  }

  // Epilogue: visited count over owner blocks, TEPS numerator over the
  // edge blocks (each shard holds one row-block x col-block slice of
  // every source's adjacency, so summing local degrees across all shards
  // counts every directed entry exactly once).
  pool_.run(ranks, [&](std::size_t k) {
    const VertexRange source_range = grid_.source_range(k);
    std::int64_t degree_sum = 0;
    for (Vertex v = source_range.begin; v < source_range.end; ++v) {
      if (result.parent[static_cast<std::size_t>(v)] == kNoVertex) continue;
      degree_sum += nodes_[k]->local_degree(v);
    }
    shared.degree_sum.fetch_add(degree_sum);

    const VertexRange owner_range = grid_.owner_block(k);
    std::int64_t visited = 0;
    for (Vertex v = owner_range.begin; v < owner_range.end; ++v)
      if (result.parent[static_cast<std::size_t>(v)] != kNoVertex)
        ++visited;
    shared.visited.fetch_add(visited);
  });
  result.visited = shared.visited.load();
  result.teps_edge_count = shared.degree_sum.load() / 2;
  result.teps = result.seconds > 0.0
                    ? static_cast<double>(result.teps_edge_count) /
                          result.seconds
                    : 0.0;

  if (obs::enabled()) {
    obs::metrics().counter("shard.bfs.runs").add(1);
    obs::metrics()
        .counter("shard.bfs.levels")
        .add(result.levels.size());
    obs::metrics().counter("shard.bfs.io_failures").add(result.io_failures);
    obs::metrics()
        .counter("shard.bfs.remote_bytes")
        .add(result.total_remote_bytes);
  }
  return result;
}

}  // namespace sembfs::shard
