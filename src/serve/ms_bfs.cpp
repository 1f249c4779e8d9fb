#include "serve/ms_bfs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>

#include "bfs/sweep.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace sembfs::serve {

namespace {

struct SweepState {
  std::vector<std::atomic<std::int64_t>> cursors;  // offset within node range
  std::atomic<std::int64_t> claimed{0};
  std::atomic<std::int64_t> scanned{0};
  std::atomic<std::uint64_t> words_swept{0};
  std::atomic<std::uint64_t> words_skipped{0};
  std::array<std::atomic<std::int64_t>, MsBfsBatch::kMaxBatch> lane_claims{};
};

/// One MS-BFS level: the word-skip sweep over every node partition of
/// `backward`, gathering neighbor frontier words into the uncovered
/// vertices. Shares bottom_up.cpp's shape (per-node work-stealing cursors,
/// worker-local counters flushed once, visit_neighbors reads) with the
/// per-vertex claim generalized from one bit to a 64-lane word.
template <typename Backward>
void run_level(SweepState& state, ThreadPool& pool,
               const NumaTopology& topology, Backward& backward,
               std::uint64_t live, std::int64_t chunk,
               std::int32_t level, std::size_t width, std::uint64_t* seen,
               const std::uint64_t* frontier, std::uint64_t* next,
               AtomicBitmap& covered,
               std::vector<std::vector<std::int32_t>>& levels,
               std::vector<std::vector<Vertex>>& parents,
               bool record_parents, const DeltaBuffer* delta) {
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  state.cursors =
      std::vector<std::atomic<std::int64_t>>(backward.node_count());
  // No lane ever covers a degree-0 vertex, so without the mask every word
  // holding one would be swept. Inserts can give such a vertex in-edges,
  // so those stay unmasked.
  const auto skip = degree_zero_skip(backward.degree_zero(), delta);
  pool.run(workers, [&](std::size_t w) {
    std::vector<Vertex> scratch;  // NVM chunk staging (hybrid only)
    std::int64_t local_claimed = 0;
    std::int64_t local_scanned = 0;
    std::uint64_t local_swept = 0;
    std::uint64_t local_skipped = 0;
    std::array<std::int64_t, MsBfsBatch::kMaxBatch> local_lane{};

    for_each_assigned_node(w, workers, backward.node_count(),
                           [&](std::size_t node) {
      auto& part = backward.partition(node);
      const VertexRange range = part.source_range();
      auto& cursor = state.cursors[node];
      for (;;) {
        const std::int64_t lo =
            cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= range.size()) break;
        const std::int64_t hi =
            std::min<std::int64_t>(range.size(), lo + chunk);
        const auto [swept, skipped] = sweep_unvisited(
            covered, range.begin + lo, range.begin + hi, [&](Vertex v) {
              const auto vi = static_cast<std::size_t>(v);
              const std::uint64_t have = seen[vi];
              if ((have & live) == live) {
                // Saturated lazily — e.g. the lanes that still needed v
                // died since the bit was last checked.
                covered.set(vi);
                return;
              }
              std::uint64_t gathered = 0;
              const auto gather = [&](Vertex u) {
                ++local_scanned;
                const std::uint64_t fresh =
                    frontier[static_cast<std::size_t>(u)] & live & ~have &
                    ~gathered;
                if (fresh != 0) {
                  if (record_parents) {
                    // The contributing neighbor is the parent for exactly
                    // the lanes u freshly covers.
                    for_each_set_in_word(fresh, 0, [&](std::size_t q) {
                      parents[q][vi] = u;
                    });
                  }
                  gathered |= fresh;
                  if (((have | gathered) & live) == live)
                    return false;  // all live lanes found v: early exit
                }
                return true;
              };
              // Delta-inserted in-neighbors first (DRAM-cheap; an early
              // saturation here skips the base scan), then the base
              // adjacency with tombstoned pairs filtered out.
              bool open = true;
              if (delta != nullptr && delta->has_inserts(v)) {
                for (const Vertex u : delta->inserted(v)) {
                  if (!gather(u)) {
                    open = false;
                    break;
                  }
                }
              }
              if (open) {
                visit_neighbors(part, v, scratch, [&](Vertex u) {
                  if (delta != nullptr && delta->edge_removed(v, u)) {
                    ++local_scanned;
                    return true;
                  }
                  return gather(u);
                });
              }
              if (gathered != 0) {
                // Single-writer per vertex: each uncovered vertex is swept
                // by exactly one worker per level (chunk ownership), so
                // these plain stores race with nothing.
                seen[vi] = have | gathered;
                next[vi] = gathered;
                for_each_set_in_word(gathered, 0, [&](std::size_t q) {
                  levels[q][vi] = level;
                  ++local_lane[q];
                });
                local_claimed += std::popcount(gathered);
                if (((have | gathered) & live) == live) covered.set(vi);
              }
            },
            skip);
        local_swept += swept;
        local_skipped += skipped;
      }
    });
    state.claimed.fetch_add(local_claimed, std::memory_order_relaxed);
    state.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    state.words_swept.fetch_add(local_swept, std::memory_order_relaxed);
    state.words_skipped.fetch_add(local_skipped, std::memory_order_relaxed);
    for (std::size_t q = 0; q < width; ++q)
      if (local_lane[q] != 0)
        state.lane_claims[q].fetch_add(local_lane[q],
                                       std::memory_order_relaxed);
  });
}

}  // namespace

MsBfsBatch::MsBfsBatch(const GraphStorage& storage,
                       const NumaTopology& topology, ThreadPool& pool,
                       std::span<const Vertex> roots,
                       const MsBfsConfig& config)
    : storage_(storage), topology_(topology), pool_(pool), config_(config) {
  SEMBFS_EXPECTS(!roots.empty() && roots.size() <= kMaxBatch);
  SEMBFS_EXPECTS(attached(storage_.backward));
  SEMBFS_EXPECTS(config_.sweep_chunk >= 1);
  const Vertex n = storage_.vertex_count();
  width_ = roots.size();
  live_mask_ = width_ == kMaxBatch
                   ? ~std::uint64_t{0}
                   : (std::uint64_t{1} << width_) - 1;
  roots_.assign(roots.begin(), roots.end());

  seen_.assign(static_cast<std::size_t>(n), 0);
  frontier_.assign(static_cast<std::size_t>(n), 0);
  next_.assign(static_cast<std::size_t>(n), 0);
  covered_.resize(static_cast<std::size_t>(n));

  levels_.resize(width_);
  parents_.resize(width_);
  visited_.assign(width_, 1);  // the root itself
  depth_.assign(width_, 0);
  for (std::size_t q = 0; q < width_; ++q) {
    const Vertex root = roots_[q];
    SEMBFS_EXPECTS(root >= 0 && root < n);
    levels_[q].assign(static_cast<std::size_t>(n), -1);
    levels_[q][static_cast<std::size_t>(root)] = 0;
    if (config_.record_parents) {
      parents_[q].assign(static_cast<std::size_t>(n), kNoVertex);
      parents_[q][static_cast<std::size_t>(root)] = root;
    }
    seen_[static_cast<std::size_t>(root)] |= std::uint64_t{1} << q;
    frontier_[static_cast<std::size_t>(root)] |= std::uint64_t{1} << q;
  }
}

bool MsBfsBatch::step() {
  if (done_) return false;
  if (live_mask_ == 0) {
    done_ = true;
    return false;
  }
  Timer timer;
  SweepState state;
  visit_graph(storage_.backward, [&](auto& backward) {
    run_level(state, pool_, topology_, backward, live_mask_,
              config_.sweep_chunk, level_, width_, seen_.data(),
              frontier_.data(), next_.data(), covered_, levels_, parents_,
              config_.record_parents, storage_.delta);
  });

  const std::int64_t claimed = state.claimed.load(std::memory_order_relaxed);
  scanned_edges_ += state.scanned.load(std::memory_order_relaxed);
  for (std::size_t q = 0; q < width_; ++q) {
    const std::int64_t c =
        state.lane_claims[q].load(std::memory_order_relaxed);
    if (c != 0) {
      visited_[q] += c;
      depth_[q] = level_;
    }
  }

  if (obs::enabled()) {
    static obs::Counter* const levels =
        &obs::metrics().counter("serve.msbfs.levels");
    static obs::Counter* const claims =
        &obs::metrics().counter("serve.msbfs.claims");
    static obs::Counter* const swept =
        &obs::metrics().counter("serve.msbfs.words_swept");
    static obs::Counter* const skipped =
        &obs::metrics().counter("serve.msbfs.words_skipped");
    levels->add(1);
    claims->add(static_cast<std::uint64_t>(claimed));
    swept->add(state.words_swept.load(std::memory_order_relaxed));
    skipped->add(state.words_skipped.load(std::memory_order_relaxed));
  }

  advance(claimed);
  seconds_ += timer.seconds();
  ++level_;
  return !done_;
}

void MsBfsBatch::deactivate(std::size_t q) noexcept {
  SEMBFS_ASSERT(q < width_);
  live_mask_ &= ~(std::uint64_t{1} << q);
  // The dead lane's frontier/seen bits stay in place; every gather masks
  // with the live word, so they are inert. O(1) by design.
}

void MsBfsBatch::advance(std::int64_t claimed_this_level) {
  // next -> frontier; the old frontier array becomes next and must be
  // zeroed (claims write next[v] with =, so stale words would resurrect).
  std::swap(frontier_, next_);
  std::uint64_t* const data = next_.data();
  const std::size_t n = next_.size();
  const std::size_t workers = pool_.size();
  constexpr std::size_t kSerialWords = 1 << 14;  // 128 KiB, as clear_parallel
  if (n <= kSerialWords || workers <= 1) {
    std::fill_n(data, n, std::uint64_t{0});
  } else {
    pool_.run(workers, [data, n, workers](std::size_t w) {
      const std::size_t chunk = (n + workers - 1) / workers;
      const std::size_t lo = w * chunk;
      const std::size_t hi = lo + chunk < n ? lo + chunk : n;
      for (std::size_t i = lo; i < hi; ++i) data[i] = 0;
    });
  }
  if (claimed_this_level == 0 || live_mask_ == 0) done_ = true;
}

}  // namespace sembfs::serve
