#include "graph/hybrid_csr.hpp"

#include <algorithm>

#include "nvm/storage_file.hpp"

namespace sembfs {

HybridBackwardPartition::HybridBackwardPartition(
    const Csr& csr, std::int64_t dram_edges_per_vertex,
    std::shared_ptr<NvmDevice> device, const std::string& dir,
    std::size_t node_id, std::uint32_t chunk_bytes, ChunkFormat format)
    : sources_(csr.source_range()),
      dram_cap_(dram_edges_per_vertex),
      chunk_bytes_(chunk_bytes),
      format_(format) {
  SEMBFS_EXPECTS(dram_edges_per_vertex >= 0);
  SEMBFS_EXPECTS(device != nullptr);
  ensure_directory(dir);

  const std::int64_t local_n = sources_.size();
  dram_index_.assign(static_cast<std::size_t>(local_n) + 1, 0);
  nvm_index_.assign(static_cast<std::size_t>(local_n) + 1, 0);

  // Split sizes per vertex.
  for (std::int64_t v = 0; v < local_n; ++v) {
    const std::int64_t deg = csr.degree(sources_.begin + v);
    const std::int64_t in_dram = std::min(deg, dram_cap_);
    dram_index_[static_cast<std::size_t>(v) + 1] =
        dram_index_[static_cast<std::size_t>(v)] + in_dram;
    nvm_index_[static_cast<std::size_t>(v) + 1] =
        nvm_index_[static_cast<std::size_t>(v)] + (deg - in_dram);
  }
  nvm_entry_count_ = nvm_index_.back();

  // Fill the DRAM prefix arrays.
  dram_values_.resize(static_cast<std::size_t>(dram_index_.back()));
  for (std::int64_t v = 0; v < local_n; ++v) {
    const auto adj = csr.neighbors(sources_.begin + v);
    const std::int64_t in_dram =
        dram_index_[static_cast<std::size_t>(v) + 1] -
        dram_index_[static_cast<std::size_t>(v)];
    std::copy_n(adj.begin(), in_dram,
                dram_values_.begin() + dram_index_[static_cast<std::size_t>(v)]);
  }

  // Offload the remainder to NVM: gather every per-vertex overflow run
  // into one contiguous image, then store it raw or varint-compressed.
  const std::string path =
      dir + "/bg_node" + std::to_string(node_id) + ".overflow";
  auto file = std::make_unique<NvmFile>(std::move(device), path);

  std::vector<Vertex> overflow_values;
  overflow_values.reserve(static_cast<std::size_t>(nvm_entry_count_));
  for (std::int64_t v = 0; v < local_n; ++v) {
    const auto adj = csr.neighbors(sources_.begin + v);
    const std::int64_t in_dram =
        dram_index_[static_cast<std::size_t>(v) + 1] -
        dram_index_[static_cast<std::size_t>(v)];
    if (static_cast<std::int64_t>(adj.size()) <= in_dram) continue;
    overflow_values.insert(overflow_values.end(), adj.begin() + in_dram,
                           adj.end());
  }
  SEMBFS_ENSURES(static_cast<std::int64_t>(overflow_values.size()) ==
                 nvm_entry_count_);

  if (format_ == ChunkFormat::kVarint) {
    auto compressed = std::make_unique<CompressedBlockFile>(
        std::move(file), std::span<const Vertex>{overflow_values},
        chunk_bytes);
    compressed_ = compressed.get();
    nvm_file_ = std::move(compressed);
  } else {
    constexpr std::size_t kWriteStride = 1 << 20;  // bulk construction writes
    std::size_t done = 0;
    while (done < overflow_values.size()) {
      const std::size_t len =
          std::min(kWriteStride, overflow_values.size() - done);
      file->write(done * sizeof(Vertex),
                  std::as_bytes(std::span<const Vertex>{overflow_values}
                                    .subspan(done, len)));
      done += len;
    }
    file->sync();
    nvm_file_ = std::move(file);
  }
  nvm_values_ = std::make_unique<ExternalArray<Vertex>>(
      *nvm_file_, 0, static_cast<std::uint64_t>(nvm_entry_count_),
      chunk_bytes);
}

std::uint64_t HybridBackwardPartition::dram_byte_size() const noexcept {
  return dram_index_.size() * sizeof(std::int64_t) +
         nvm_index_.size() * sizeof(std::int64_t) +
         dram_values_.size() * sizeof(Vertex);
}

std::uint64_t HybridBackwardPartition::nvm_byte_size() const noexcept {
  if (compressed_ != nullptr) return compressed_->encoded_byte_size();
  return static_cast<std::uint64_t>(nvm_entry_count_) * sizeof(Vertex);
}

HybridBackwardGraph::HybridBackwardGraph(const BackwardGraph& backward,
                                         std::int64_t dram_edges_per_vertex,
                                         std::shared_ptr<NvmDevice> device,
                                         const std::string& dir,
                                         std::uint32_t chunk_bytes,
                                         ChunkFormat format)
    : vertex_partition_(backward.vertex_partition()),
      degree_zero_(backward.degree_zero()),
      device_(device) {
  partitions_.reserve(backward.node_count());
  for (std::size_t k = 0; k < backward.node_count(); ++k) {
    partitions_.push_back(std::make_unique<HybridBackwardPartition>(
        backward.partition(k), dram_edges_per_vertex, device_, dir, k,
        chunk_bytes, format));
  }
}

std::uint64_t HybridBackwardGraph::dram_byte_size() const noexcept {
  std::uint64_t total = degree_zero_.word_count() * sizeof(std::uint64_t);
  for (const auto& p : partitions_) total += p->dram_byte_size();
  return total;
}

std::uint64_t HybridBackwardGraph::nvm_byte_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->nvm_byte_size();
  return total;
}

std::uint64_t HybridBackwardGraph::dram_edges_examined() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->dram_edges_examined();
  return total;
}

std::uint64_t HybridBackwardGraph::nvm_edges_examined() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->nvm_edges_examined();
  return total;
}

void HybridBackwardGraph::reset_counters() noexcept {
  for (const auto& p : partitions_) p->reset_counters();
}

}  // namespace sembfs
