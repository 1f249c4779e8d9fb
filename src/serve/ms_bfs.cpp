#include "serve/ms_bfs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>

#include "bfs/bottom_up.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace sembfs::serve {

/// One worker's MS-BFS visitor on pull_sweep: gathers the frontier lane
/// words of each uncovered vertex's in-neighbors into the vertex until
/// every live lane has reached it (the per-vertex claim of bottom_up.cpp
/// generalized from one bit to a 64-lane word).
struct MsBfsBatch::LaneGather {
  /// Per-lane claim counts of one level, folded once per worker.
  using Totals = std::array<std::atomic<std::int64_t>, kMaxBatch>;

  MsBfsBatch& batch;
  Totals& totals;
  std::array<std::int64_t, kMaxBatch> lanes{};

  template <typename Read>
  std::int64_t operator()(Read& read, std::size_t word,
                          std::uint64_t pending) {
    std::uint64_t* const seen = batch.seen_.data();
    const std::uint64_t* const frontier = batch.frontier_.data();
    const std::uint64_t live = batch.live_mask_;
    std::int64_t claimed = 0;
    for_each_set_in_word(pending, word * 64, [&](std::size_t vi) {
      const std::uint64_t have = seen[vi];
      if ((have & live) == live) {
        // Saturated lazily — e.g. the lanes that still needed v died since
        // the bit was last checked.
        batch.covered_.set(vi);
        return;
      }
      std::uint64_t gathered = 0;
      read(static_cast<Vertex>(vi), [&](Vertex u) {
        const std::uint64_t fresh = frontier[static_cast<std::size_t>(u)] &
                                    live & ~have & ~gathered;
        if (fresh == 0) return true;
        if (batch.config_.record_parents) {
          // The contributing neighbor is the parent for exactly the lanes
          // u freshly covers.
          for_each_set_in_word(fresh, 0, [&](std::size_t q) {
            batch.parents_[q][vi] = u;
          });
        }
        gathered |= fresh;
        // Early exit once all live lanes found v.
        return ((have | gathered) & live) != live;
      });
      if (gathered == 0) return;
      // Single-writer per vertex: each uncovered vertex is swept by
      // exactly one worker per level (chunk ownership), so these plain
      // stores race with nothing.
      seen[vi] = have | gathered;
      batch.next_[vi] = gathered;
      for_each_set_in_word(gathered, 0, [&](std::size_t q) {
        batch.levels_[q][vi] = batch.level_;
        ++lanes[q];
      });
      claimed += std::popcount(gathered);
      if (((have | gathered) & live) == live) batch.covered_.set(vi);
    });
    return claimed;
  }

  template <typename Read>
  void end_partition(Read& /*read*/) {
    for (std::size_t q = 0; q < batch.width_; ++q) {
      if (lanes[q] != 0)
        totals[q].fetch_add(lanes[q], std::memory_order_relaxed);
      lanes[q] = 0;
    }
  }
};

MsBfsBatch::MsBfsBatch(const GraphStorage& storage,
                       const NumaTopology& topology, ThreadPool& pool,
                       std::span<const Vertex> roots,
                       const MsBfsConfig& config)
    : storage_(storage), topology_(topology), pool_(pool), config_(config) {
  SEMBFS_EXPECTS(!roots.empty() && roots.size() <= kMaxBatch);
  SEMBFS_EXPECTS(attached(storage_.backward));
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
  LaneGather::Totals lane_claims{};
  const PullResult pull = pull_sweep(
      storage_.backward, storage_.delta, covered_, topology_, pool_,
      kPullChunk,
      [&](std::size_t /*w*/) { return LaneGather{*this, lane_claims}; });

  const std::int64_t claimed = pull.step.claimed;
  scanned_edges_ += pull.step.scanned_edges;
  for (std::size_t q = 0; q < width_; ++q) {
    const std::int64_t c = lane_claims[q].load(std::memory_order_relaxed);
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
    swept->add(pull.words_swept);
    skipped->add(pull.words_skipped);
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
