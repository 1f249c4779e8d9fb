#include "shard/sharded_bfs.hpp"

#include <algorithm>

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
  const auto bits = static_cast<std::size_t>(n);

  ShardedBfsResult result;
  result.root = root;
  result.parent.assign(bits, kNoVertex);
  result.level.assign(bits, -1);

  MessageBus bus{ranks};

  // Per-shard run state. Each shard only ever touches its own entry;
  // owners additionally write their exclusive parent/level block. The
  // calling thread reads the level's tallies after the join.
  struct ShardState {
    std::vector<Vertex> frontier;  // owned, ascending
    Bitmap replica;     // visited, over the source range
    Bitmap membership;  // frontier, over the destination range
    Bitmap claimed;     // this level's claims, over the owner block
    double exchange_s = 0.0;
    double compute_s = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::uint64_t scanned_edges = 0;
  };
  std::vector<ShardState> shards(ranks);
  for (ShardState& s : shards) {
    s.replica.resize(bits);
    s.membership.resize(bits);
    s.claimed.resize(bits);
  }

  shards[grid_.owner_of(root)].frontier.push_back(root);
  result.parent[static_cast<std::size_t>(root)] = root;
  result.level[static_cast<std::size_t>(root)] = 0;
  std::int64_t frontier_total = 1;
  Direction direction = config.mode == ShardedBfsConfig::Mode::BottomUpOnly
                            ? Direction::BottomUp
                            : Direction::TopDown;

  Timer timer;
  std::int32_t level = 1;
  for (; frontier_total > 0 && level <= n; ++level) {
    // Per-level byte deltas: snapshot the phase totals before the level
    // (no sends are in flight between levels).
    const std::uint64_t frontier_bytes0 =
        bus.remote_bytes(Phase::kFrontier);
    const std::uint64_t membership_bytes0 =
        bus.remote_bytes(Phase::kMembership);
    const std::uint64_t claim_bytes0 = bus.remote_bytes(Phase::kClaims);
    const std::uint64_t messages0 = bus.total_messages();

    pool_.run(ranks, [&](std::size_t k) {
      ShardState& s = shards[k];
      ShardNode& node = *nodes_[k];
      const VertexRange owner_range = grid_.owner_block(k);
      const VertexRange source_range = grid_.source_range(k);
      s.requests = 0;
      s.failures = 0;
      s.scanned_edges = 0;
      Timer phase_timer;

      // Frontier exchange: one encode, multicast to the grid row holding
      // this owner's vertices as sources and, on bottom-up levels, down
      // the owner's grid column. Row receivers fold the messages into
      // their visited replica; on top-down levels the same messages are
      // the expansion input. Column receivers build the destination-block
      // membership bitmap the sweep probes.
      {
        const std::vector<std::byte> encoded = encode_vertex_set(
            s.frontier, owner_range, config.frontier_encoding);
        for (const std::size_t to :
             grid_.row_members(grid_.publish_row(k)))
          bus.send(k, to, Phase::kFrontier, encoded);
        if (direction == Direction::BottomUp)
          for (const std::size_t to : grid_.col_members(grid_.col_of(k)))
            bus.send(k, to, Phase::kMembership, encoded);
      }
      bus.barrier();  // (1) all frontier and membership messages delivered
      std::vector<Vertex> row_frontier;
      if (direction == Direction::TopDown) {
        // Member by member: the expansion list keeps message order, which
        // sets the merged reads and so the request count.
        for (const auto& msg : bus.drain_all(k, Phase::kFrontier)) {
          decode_vertex_set(msg.payload, [&](Vertex v) {
            SEMBFS_ASSERT(source_range.contains(v));
            s.replica.set(static_cast<std::size_t>(v));
            if (node.has_local_edges(v)) row_frontier.push_back(v);
          });
        }
      } else {
        for (const auto& msg : bus.drain_all(k, Phase::kFrontier))
          or_vertex_set(msg.payload, source_range, s.replica);
        s.membership.clear();
        for (const auto& msg : bus.drain_all(k, Phase::kMembership))
          or_vertex_set(msg.payload, grid_.destination_range(k),
                        s.membership);
      }
      s.exchange_s = phase_timer.seconds();

      // Claim generation against this shard's edge block.
      phase_timer.reset();
      std::vector<Claim> claims;  // children non-decreasing when sent
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
          if (s.failures > 0) return {};  // the level is redone below
          const std::size_t begin = cursor;
          cursor = std::min(cursor + kFetchBatch, row_frontier.size());
          return std::span<const Vertex>{row_frontier}.subspan(
              begin, cursor - begin);
        };
        s.requests = read_batches(node.nvm_block(), node.reads(), next_batch,
                                  emit, [&] { ++s.failures; });
        if (s.failures > 0) {
          // Degraded level: redo the expansion from the DRAM copy, so the
          // shard sends exactly a clean run's claims; only its stats show
          // the failure.
          claims.clear();
          for (const Vertex v : row_frontier) emit(v, node.local_neighbors(v));
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
        // Word-skip sweep of this block's unvisited sources that have an
        // edge in it, probing the DRAM copy of the block against the
        // membership bitmap with first-hit exit: at most one claim per
        // source — O(new vertices) traffic — and no device I/O.
        const Bitmap& member = s.membership;
        std::uint64_t scanned = 0;
        sweep_unvisited(
            s.replica, source_range.begin, source_range.end,
            [&](Vertex w) {
              for (const Vertex v : node.local_neighbors(w)) {
                ++scanned;
                if (member.test(static_cast<std::size_t>(v))) {
                  claims.push_back(Claim{w, v});
                  break;
                }
              }
            },
            degree_zero_skip(node.degree_zero(), nullptr));
        s.scanned_edges = scanned;
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
      s.compute_s = phase_timer.seconds();
      bus.barrier();  // (2) all claims delivered

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
            s.claimed.set(static_cast<std::size_t>(child));
          }
        });
      }
      // The next frontier, ascending, read off the claim bitmap a word at
      // a time; the words are cleared for the next level as they go.
      s.frontier.clear();
      const std::span<std::uint64_t> words = s.claimed.words();
      for (auto w = static_cast<std::size_t>(owner_range.begin) / 64;
           w < (static_cast<std::size_t>(owner_range.end) + 63) / 64; ++w) {
        for_each_set_in_word(words[w], w * 64, [&](std::size_t v) {
          s.frontier.push_back(static_cast<Vertex>(v));
        });
        words[w] = 0;
      }
      s.compute_s += phase_timer.seconds();
    });

    ShardLevelStats stats;
    stats.level = level;
    stats.direction = direction;
    stats.frontier_vertices = frontier_total;
    for (const ShardState& s : shards) {
      stats.claimed_vertices += static_cast<std::int64_t>(s.frontier.size());
      stats.exchange_seconds += s.exchange_s;
      stats.compute_seconds += s.compute_s;
      stats.nvm_requests += s.requests;
      stats.io_failures += s.failures;
      stats.degraded_shards += s.failures > 0 ? 1 : 0;
      stats.scanned_edges += s.scanned_edges;
    }
    stats.frontier_bytes = bus.remote_bytes(Phase::kFrontier) - frontier_bytes0;
    stats.membership_bytes =
        bus.remote_bytes(Phase::kMembership) - membership_bytes0;
    stats.claim_bytes = bus.remote_bytes(Phase::kClaims) - claim_bytes0;
    stats.remote_bytes =
        stats.frontier_bytes + stats.membership_bytes + stats.claim_bytes;
    stats.remote_messages = bus.total_messages() - messages0;
    result.levels.push_back(stats);

    if (config.mode == ShardedBfsConfig::Mode::Hybrid) {
      PolicyInput in;
      in.current = direction;
      in.n_all = n;
      in.prev_frontier = frontier_total;
      in.cur_frontier = stats.claimed_vertices;
      direction = config.policy.decide(in);
    }
    frontier_total = stats.claimed_vertices;
  }
  result.seconds = timer.seconds();
  result.depth = level - 1;
  result.total_remote_bytes = bus.total_remote_bytes();
  result.total_remote_messages = bus.total_messages();
  // The root is seeded, every other visited vertex claimed at one level.
  result.visited = 1;
  std::uint64_t bu_edges = 0;
  for (const ShardLevelStats& stats : result.levels) {
    result.visited += stats.claimed_vertices;
    result.io_failures += stats.io_failures;
    result.degraded = result.degraded || stats.degraded_shards > 0;
    bu_edges += stats.scanned_edges;
  }

  // TEPS numerator: every frontier was published to its row, so each
  // replica holds exactly the visited sources of its row block, and each
  // shard holds one row-block x col-block slice of every source's
  // adjacency; summing the blocks' degrees counts every directed entry
  // exactly once.
  std::int64_t degree_sum = 0;
  for (std::size_t k = 0; k < ranks; ++k)
    degree_sum += nodes_[k]->degree_sum(shards[k].replica);
  result.teps_edge_count = degree_sum / 2;
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
    obs::metrics().counter("shard.bfs.bu_edges").add(bu_edges);
  }
  return result;
}

}  // namespace sembfs::shard
