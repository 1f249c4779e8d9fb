// Partially-offloaded backward graph (paper Sections V-A, V-C, VI-E).
//
// The bottom-up step usually finds a frontier parent within the first few
// neighbors of an unvisited vertex, so most of each adjacency list is never
// read. The hybrid layout exploits that: the first `dram_edges_per_vertex`
// neighbors of every vertex stay in DRAM — the source lists are hub-first,
// so these are the vertex's edges to the highest-degree vertices — and the
// remainder is offloaded to an NVM value file and only streamed (in 4 KiB
// chunks) when the DRAM prefix fails to terminate the search. Per-tier
// access counters feed Figure 14 (access ratio to the backward graph on
// NVM vs DRAM size reduction).
//
// The head of each DRAM prefix is the vertex's hub, so the bottom-up
// kernel's hub probe reads it there and needs no hub array of its own
// (with k = 0 there is no hub, and every vertex's list is read whole).
// The DRAM side is the prefix arrays, both index arrays and the source
// graph's degree-0 mask.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/backward_graph.hpp"
#include "nvm/chunk_format.hpp"
#include "nvm/compressed_file.hpp"
#include "nvm/external_array.hpp"
#include "nvm/nvm_device.hpp"
#include "numa/partition.hpp"
#include "util/contracts.hpp"

namespace sembfs {

class HybridBackwardPartition {
 public:
  /// Splits `csr` (one backward partition): first `dram_edges_per_vertex`
  /// neighbors per vertex stay in DRAM, the rest go to an NVM file.
  /// With ChunkFormat::kVarint the NVM remainder file is stored as
  /// delta/varint blobs behind a CompressedBlockFile; the streamed
  /// bottom-up / MS-BFS read path is format-oblivious.
  HybridBackwardPartition(const Csr& csr, std::int64_t dram_edges_per_vertex,
                          std::shared_ptr<NvmDevice> device,
                          const std::string& dir, std::size_t node_id,
                          std::uint32_t chunk_bytes = 4096,
                          ChunkFormat format = ChunkFormat::kRaw);

  [[nodiscard]] VertexRange source_range() const noexcept { return sources_; }
  [[nodiscard]] std::int64_t dram_edges_per_vertex() const noexcept {
    return dram_cap_;
  }

  [[nodiscard]] ChunkFormat format() const noexcept { return format_; }
  [[nodiscard]] std::uint64_t dram_byte_size() const noexcept;
  [[nodiscard]] std::uint64_t nvm_byte_size() const noexcept;
  /// Uncompressed size of the NVM remainder (what kRaw would occupy).
  [[nodiscard]] std::uint64_t nvm_raw_byte_size() const noexcept {
    return static_cast<std::uint64_t>(nvm_entry_count_) * sizeof(Vertex);
  }
  [[nodiscard]] std::int64_t dram_entry_count() const noexcept {
    return static_cast<std::int64_t>(dram_values_.size());
  }
  [[nodiscard]] std::int64_t nvm_entry_count() const noexcept {
    return nvm_entry_count_;
  }

  /// Global vertex v's hub: the head of its DRAM prefix, or kNoVertex when
  /// the prefix is empty (degree 0, or k = 0). Counts nothing; the caller
  /// reports its probes through count_hub_probes.
  [[nodiscard]] Vertex hub(Vertex v) const noexcept {
    SEMBFS_ASSERT(sources_.contains(v));
    const auto local = static_cast<std::size_t>(v - sources_.begin);
    const std::int64_t head = dram_index_[local];
    return head < dram_index_[local + 1]
               ? dram_values_[static_cast<std::size_t>(head)]
               : kNoVertex;
  }
  /// Counts `probes` hub reads as DRAM edges examined (Figure 14).
  void count_hub_probes(std::uint64_t probes) noexcept {
    if (probes != 0)
      dram_examined_.fetch_add(probes, std::memory_order_relaxed);
  }

  /// Visits neighbors of global vertex v in storage order, from position
  /// `start` on: DRAM prefix first, then the NVM remainder streamed
  /// chunk-wise. `fn(Vertex)` returns false to stop early (bottom-up
  /// parent found). `scratch` is the caller's staging buffer for NVM
  /// chunks (reused across calls). Edge-examination counters are updated
  /// per tier. Returns the device requests issued.
  template <typename Fn>
  std::uint64_t visit_neighbors(Vertex v, std::vector<Vertex>& scratch,
                                Fn&& fn, std::int64_t start = 0) {
    SEMBFS_ASSERT(sources_.contains(v));
    const auto local = static_cast<std::size_t>(v - sources_.begin);
    // The tier counters are shared by every sweep worker (and, under the
    // serving engine, every concurrent query); a per-edge fetch_add on
    // them turns the hottest loop in the bottom-up sweep into a cache-line
    // ping-pong. Accumulate locally and flush once per call — a device
    // fault unwinding mid-call drops that call's counts, which the
    // informational Figure-14 ratios tolerate.
    std::uint64_t dram_seen = 0;
    std::uint64_t nvm_seen = 0;
    std::uint64_t requests = 0;
    bool stopped = false;
    // DRAM prefix.
    const std::int64_t db = dram_index_[local];
    const std::int64_t de = dram_index_[local + 1];
    for (std::int64_t i = std::min(db + start, de); i < de; ++i) {
      ++dram_seen;
      if (!fn(dram_values_[static_cast<std::size_t>(i)])) {
        stopped = true;
        break;
      }
    }
    if (!stopped) {
      // NVM remainder, streamed.
      const std::int64_t nb =
          nvm_index_[local] + std::max<std::int64_t>(0, start - (de - db));
      const std::int64_t ne = nvm_index_[local + 1];
      const std::size_t chunk_elems = chunk_bytes_ / sizeof(Vertex);
      std::int64_t pos = nb;
      while (pos < ne && !stopped) {
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::int64_t>(static_cast<std::int64_t>(chunk_elems),
                                   ne - pos));
        scratch.resize(len);
        requests += nvm_values_->read(static_cast<std::uint64_t>(pos),
                                      std::span<Vertex>{scratch});
        for (std::size_t i = 0; i < len; ++i) {
          ++nvm_seen;
          if (!fn(scratch[i])) {
            stopped = true;
            break;
          }
        }
        pos += static_cast<std::int64_t>(len);
      }
    }
    if (dram_seen != 0)
      dram_examined_.fetch_add(dram_seen, std::memory_order_relaxed);
    if (nvm_seen != 0)
      nvm_examined_.fetch_add(nvm_seen, std::memory_order_relaxed);
    return requests;
  }

  /// Full degree of global vertex v (no device I/O — both index arrays are
  /// DRAM-resident).
  [[nodiscard]] std::int64_t degree(Vertex v) const noexcept {
    const auto local = static_cast<std::size_t>(v - sources_.begin);
    return (dram_index_[local + 1] - dram_index_[local]) +
           (nvm_index_[local + 1] - nvm_index_[local]);
  }

  [[nodiscard]] std::uint64_t dram_edges_examined() const noexcept {
    return dram_examined_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t nvm_edges_examined() const noexcept {
    return nvm_examined_.load(std::memory_order_relaxed);
  }
  void reset_counters() noexcept {
    dram_examined_.store(0, std::memory_order_relaxed);
    nvm_examined_.store(0, std::memory_order_relaxed);
  }

 private:
  VertexRange sources_;
  std::int64_t dram_cap_ = 0;
  std::uint32_t chunk_bytes_ = 4096;

  std::vector<std::int64_t> dram_index_;  // local, size+1
  std::vector<Vertex> dram_values_;
  std::vector<std::int64_t> nvm_index_;   // local offsets into NVM file
  std::int64_t nvm_entry_count_ = 0;
  ChunkFormat format_ = ChunkFormat::kRaw;
  // In kVarint format this is the CompressedBlockFile wrapping the
  // physical overflow file (compressed_ aliases it).
  std::unique_ptr<NvmBackingFile> nvm_file_;
  CompressedBlockFile* compressed_ = nullptr;
  std::unique_ptr<ExternalArray<Vertex>> nvm_values_;

  std::atomic<std::uint64_t> dram_examined_{0};
  std::atomic<std::uint64_t> nvm_examined_{0};
};

/// The full partially-offloaded backward graph.
class HybridBackwardGraph {
 public:
  HybridBackwardGraph(const BackwardGraph& backward,
                      std::int64_t dram_edges_per_vertex,
                      std::shared_ptr<NvmDevice> device,
                      const std::string& dir,
                      std::uint32_t chunk_bytes = 4096,
                      ChunkFormat format = ChunkFormat::kRaw);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return partitions_.size();
  }
  [[nodiscard]] HybridBackwardPartition& partition(std::size_t node) noexcept {
    return *partitions_[node];
  }
  [[nodiscard]] const VertexPartition& vertex_partition() const noexcept {
    return vertex_partition_;
  }
  [[nodiscard]] Vertex vertex_count() const noexcept {
    return vertex_partition_.vertex_count();
  }

  /// Full degree of global vertex v (no device I/O).
  [[nodiscard]] std::int64_t degree(Vertex v) const noexcept {
    return partitions_[vertex_partition_.node_of(v)]->degree(v);
  }
  /// The source graph's degree-0 mask (BackwardGraph::degree_zero).
  [[nodiscard]] const Bitmap& degree_zero() const noexcept {
    return degree_zero_;
  }
  /// DRAM bytes: every partition's prefix and index arrays, and the
  /// degree-0 mask.
  [[nodiscard]] std::uint64_t dram_byte_size() const noexcept;
  [[nodiscard]] std::uint64_t nvm_byte_size() const noexcept;
  /// Uncompressed size of the NVM remainder across all partitions.
  [[nodiscard]] std::uint64_t nvm_raw_byte_size() const noexcept {
    std::uint64_t total = 0;
    for (const auto& p : partitions_) total += p->nvm_raw_byte_size();
    return total;
  }
  [[nodiscard]] std::uint64_t dram_edges_examined() const noexcept;
  [[nodiscard]] std::uint64_t nvm_edges_examined() const noexcept;
  void reset_counters() noexcept;

 private:
  VertexPartition vertex_partition_;
  Bitmap degree_zero_;
  std::shared_ptr<NvmDevice> device_;
  std::vector<std::unique_ptr<HybridBackwardPartition>> partitions_;
};

}  // namespace sembfs
