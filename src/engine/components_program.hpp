// Label-propagation connected components as a vertex program.
//
// Every vertex starts labeled with its own id and active. A push
// superstep scatters each active vertex's current label over the forward
// partitions, improving neighbors via an atomic min; a pull superstep
// sweeps ALL vertices over the backward graph and takes the min over
// their full in-adjacency (single writer per vertex, plain stores). In
// both directions a vertex whose label improved becomes active for the
// next superstep, so the fixpoint — every vertex labeled with the
// smallest vertex id in its component, identical to the reference
// components the tests pin it against — is reached exactly regardless of
// the push/pull interleaving the switch policy picks.
//
// Degrade: label propagation is monotone (labels only decrease), so the
// partial improvements of a failed push superstep are harmless and a
// full backward pull completes the superstep without forward-graph I/O.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "engine/active_set.hpp"
#include "engine/vertex_program.hpp"

namespace sembfs::engine {

class ComponentsProgram final : public VertexProgram {
 public:
  ComponentsProgram() = default;

  [[nodiscard]] const char* name() const noexcept override {
    return "components";
  }
  [[nodiscard]] const char* metric_prefix() const noexcept override {
    return "engine.cc";
  }

  void init(EngineContext& ctx) override;
  [[nodiscard]] ActiveSet* active_set() noexcept override {
    return &*active_;
  }
  StepResult step(EngineContext& ctx, Direction direction) override;
  [[nodiscard]] bool converged(const EngineContext& ctx) const override;
  [[nodiscard]] bool supports_degrade() const noexcept override {
    return true;
  }
  StepResult degrade(EngineContext& ctx) override;

  /// Current label of v (the component's smallest vertex id at the
  /// fixpoint).
  [[nodiscard]] Vertex label(Vertex v) const noexcept {
    return labels_[static_cast<std::size_t>(v)].load(
        std::memory_order_relaxed);
  }
  /// Copies the label array into a plain vector.
  [[nodiscard]] std::vector<Vertex> labels() const;

 private:
  /// One full backward-graph min sweep over all vertices (the pull
  /// superstep and the degrade fallback).
  StepResult pull_step(EngineContext& ctx);

  std::vector<std::atomic<Vertex>> labels_;
  std::optional<ActiveSet> active_;
  bool initialized_ = false;
};

}  // namespace sembfs::engine
