// Explicit-edge graph IR for dnn::Network (DESIGN.md §2.8).
//
// Node = layer, edge = tensor. Each node records the node ids producing
// its inputs (kGraphInput names the network input tensor); fan-out
// (multiple consumers of one node) and multiple output heads are both
// allowed, so residual links and multi-head regression are expressible.
//
// The execution schedule IS the insertion order: add() only accepts
// input ids of already-added nodes, so the node list is topologically
// sorted by construction and every pass — plan, forward, backward (in
// reverse), the fusion pass, the liveness planner, the cost model —
// iterates it deterministically. There is no scheduler; graphs built in
// the same order execute in the same order, which is what keeps
// sequential networks bitwise identical to the pre-IR container and
// fan-in gradient accumulation deterministic.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dnn/layer.hpp"

namespace cf::dnn {

/// Index into the graph's schedule. kGraphInput is the pseudo-producer
/// of the network input tensor.
using NodeId = std::size_t;
inline constexpr NodeId kGraphInput = static_cast<NodeId>(-1);

class Graph {
 public:
  /// Appends a node consuming the outputs of `inputs` (schedule position
  /// = node id). Every input must name an earlier node or kGraphInput,
  /// and the input count must match the layer's arity().
  NodeId add(std::unique_ptr<Layer> layer, std::vector<NodeId> inputs);

  /// Declares the output heads (default after seal(): the last node).
  /// Multi-head networks concatenate the head outputs, in this order,
  /// into the flat network output.
  void set_heads(std::vector<NodeId> heads);

  /// MKL-DNN-style post-op fusion, edge-aware: a LeakyRelu node is
  /// folded into its producer's epilogue only when it is the producer's
  /// *sole* consumer (a producer with fan-out must keep its
  /// pre-activation output materialized) and the producer is not itself
  /// an explicit head. Dropped nodes are compacted out: ids renumber,
  /// edges and heads rewire onto the producer. Returns the number of
  /// pairs fused. Must run before seal().
  std::size_t fuse_eltwise();

  /// Freezes the topology: defaults the head list to {last node},
  /// builds the consumer lists and validates that every non-head node
  /// is consumed (a dead node would burn a schedule slot for nothing).
  void seal();
  bool sealed() const noexcept { return sealed_; }

  std::size_t size() const noexcept { return nodes_.size(); }
  bool empty() const noexcept { return nodes_.empty(); }

  Layer& layer(NodeId i) { return *nodes_[i].layer; }
  const Layer& layer(NodeId i) const { return *nodes_[i].layer; }

  /// Producers of node i's inputs, in edge order (kGraphInput allowed).
  const std::vector<NodeId>& inputs(NodeId i) const {
    return nodes_[i].inputs;
  }
  /// Nodes consuming node i's output, in schedule order (valid after
  /// seal; a node consuming i through two edges appears twice).
  const std::vector<NodeId>& consumers(NodeId i) const {
    return nodes_[i].consumers;
  }

  const std::vector<NodeId>& heads() const noexcept { return heads_; }
  bool is_head(NodeId i) const;

 private:
  struct Node {
    std::unique_ptr<Layer> layer;
    std::vector<NodeId> inputs;
    std::vector<NodeId> consumers;  // filled by seal()
  };

  std::vector<Node> nodes_;
  std::vector<NodeId> heads_;
  bool sealed_ = false;
};

}  // namespace cf::dnn
