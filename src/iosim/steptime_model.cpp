#include "iosim/steptime_model.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace cf::iosim {

StepTimeModel::StepTimeModel(StepModelParams params,
                             FilesystemModel filesystem)
    : params_(params), filesystem_(std::move(filesystem)) {
  if (params_.compute_seconds <= 0.0 || params_.sample_mbytes <= 0.0 ||
      params_.gradient_mbytes <= 0.0 || params_.allreduce_bw0_gbps <= 0.0) {
    throw std::invalid_argument("StepTimeModel: bad parameters");
  }
}

double StepTimeModel::allreduce_seconds(int nodes) const {
  if (nodes <= 0) throw std::invalid_argument("nodes must be positive");
  if (nodes == 1) return 0.0;
  const double stages = std::ceil(std::log2(static_cast<double>(nodes)));
  const double bw = params_.allreduce_bw0_gbps /
                    (1.0 + params_.allreduce_beta * stages);
  // The reduction moves twice the message length end to end (§VI-B).
  return params_.allreduce_alpha * stages +
         2.0 * params_.gradient_mbytes / 1000.0 / bw;
}

double StepTimeModel::io_seconds(int nodes) const {
  return filesystem_.read_seconds(nodes, params_.sample_mbytes);
}

double StepTimeModel::step_seconds(int nodes) const {
  return std::max(params_.compute_seconds, io_seconds(nodes)) +
         allreduce_seconds(nodes);
}

double StepTimeModel::epoch_seconds(int nodes, std::int64_t train_samples,
                                    std::int64_t val_samples) const {
  if (train_samples <= 0 || val_samples < 0) {
    throw std::invalid_argument("epoch_seconds: bad sample counts");
  }
  const double train_steps = static_cast<double>(train_samples) /
                             static_cast<double>(nodes);
  const double val_steps =
      static_cast<double>(val_samples) / static_cast<double>(nodes);
  // Validation runs the forward pass only; it still reads samples, so
  // the max() structure applies with the reduced compute cost, and the
  // scalar loss averaging is folded into the epoch overhead.
  const double val_step =
      std::max(params_.compute_seconds * params_.validation_step_fraction,
               io_seconds(nodes));
  return train_steps * step_seconds(nodes) + val_steps * val_step +
         params_.epoch_overhead_seconds;
}

std::vector<ScalingPoint> StepTimeModel::sweep(
    const std::vector<int>& node_counts, std::int64_t train_samples,
    std::int64_t val_samples, double flops_per_sample) const {
  CF_TRACE_SCOPE("iosim/sweep", "iosim");
  std::vector<ScalingPoint> points;
  points.reserve(node_counts.size());
  const double epoch1 = epoch_seconds(1, train_samples, val_samples);
  for (const int nodes : node_counts) {
    ScalingPoint point;
    point.nodes = nodes;
    point.io_seconds = io_seconds(nodes);
    point.allreduce_seconds = allreduce_seconds(nodes);
    point.step_seconds = step_seconds(nodes);
    point.epoch_seconds = epoch_seconds(nodes, train_samples, val_samples);
    point.speedup = epoch1 / point.epoch_seconds;
    point.efficiency = point.speedup / static_cast<double>(nodes);
    point.samples_per_second =
        static_cast<double>(nodes) / point.step_seconds;
    point.sustained_pflops =
        point.samples_per_second * flops_per_sample / 1e15;
    points.push_back(point);
  }
  return points;
}

}  // namespace cf::iosim
