#include "dnn/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "dnn/activations.hpp"

namespace cf::dnn {

NodeId Graph::add(std::unique_ptr<Layer> layer, std::vector<NodeId> inputs) {
  if (sealed_) {
    throw std::logic_error("Graph::add: graph already sealed");
  }
  if (layer == nullptr) {
    throw std::invalid_argument("Graph::add: null layer");
  }
  if (inputs.empty()) {
    throw std::invalid_argument("Graph::add: node " + layer->name() +
                                " has no inputs");
  }
  if (inputs.size() != layer->arity()) {
    throw std::invalid_argument(
        "Graph::add: node " + layer->name() + " has arity " +
        std::to_string(layer->arity()) + " but " +
        std::to_string(inputs.size()) + " inputs");
  }
  for (NodeId in : inputs) {
    if (in != kGraphInput && in >= nodes_.size()) {
      throw std::invalid_argument(
          "Graph::add: node " + layer->name() +
          " references input node " + std::to_string(in) +
          " which does not exist yet (the schedule is insertion order)");
    }
  }
  nodes_.push_back(Node{std::move(layer), std::move(inputs), {}});
  return nodes_.size() - 1;
}

void Graph::set_heads(std::vector<NodeId> heads) {
  if (sealed_) {
    throw std::logic_error("Graph::set_heads: graph already sealed");
  }
  if (heads.empty()) {
    throw std::invalid_argument("Graph::set_heads: empty head list");
  }
  for (NodeId h : heads) {
    if (h >= nodes_.size()) {
      throw std::invalid_argument("Graph::set_heads: node " +
                                  std::to_string(h) + " does not exist");
    }
  }
  heads_ = std::move(heads);
}

std::size_t Graph::fuse_eltwise() {
  if (sealed_) {
    throw std::logic_error("Graph::fuse_eltwise: graph already sealed");
  }
  // Consumer counts over the pre-fusion ids decide "sole consumer".
  std::vector<std::size_t> consumer_count(nodes_.size(), 0);
  for (const Node& node : nodes_) {
    for (NodeId in : node.inputs) {
      if (in != kGraphInput) ++consumer_count[in];
    }
  }
  std::vector<bool> pinned(nodes_.size(), false);
  for (NodeId h : heads_) pinned[h] = true;  // heads keep their output

  std::vector<Node> kept;
  kept.reserve(nodes_.size());
  std::vector<NodeId> remap(nodes_.size());
  std::size_t fused = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node node = std::move(nodes_[i]);
    const NodeId orig_input = node.inputs[0];
    for (NodeId& in : node.inputs) {
      if (in != kGraphInput) in = remap[in];
    }
    if (const auto* act = dynamic_cast<const LeakyRelu*>(node.layer.get())) {
      if (node.inputs.size() == 1 && orig_input != kGraphInput &&
          consumer_count[orig_input] == 1 && !pinned[orig_input] &&
          kept[node.inputs[0]].layer->fuse_leaky_relu(
              act->negative_slope())) {
        // Drop the standalone activation; its consumers and head role
        // fall to the producer.
        remap[i] = node.inputs[0];
        ++fused;
        continue;
      }
    }
    remap[i] = kept.size();
    kept.push_back(std::move(node));
  }
  for (NodeId& h : heads_) h = remap[h];
  nodes_ = std::move(kept);
  return fused;
}

void Graph::seal() {
  if (sealed_) throw std::logic_error("Graph::seal: called twice");
  if (nodes_.empty()) throw std::logic_error("Graph::seal: empty graph");
  if (heads_.empty()) heads_ = {nodes_.size() - 1};
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (NodeId in : nodes_[i].inputs) {
      if (in != kGraphInput) nodes_[in].consumers.push_back(i);
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].consumers.empty() && !is_head(i)) {
      throw std::logic_error("Graph::seal: node " + nodes_[i].layer->name() +
                             " is neither consumed nor a head");
    }
  }
  sealed_ = true;
}

bool Graph::is_head(NodeId i) const {
  return std::find(heads_.begin(), heads_.end(), i) != heads_.end();
}

}  // namespace cf::dnn
