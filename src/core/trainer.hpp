// Synchronous data-parallel trainer — Algorithm 2 of the paper.
//
// Every MPI rank (a thread here, see comm/mlcomm.hpp) owns a full model
// replica and processes a mini-batch of one sample per step; the
// global batch size therefore equals the rank count (§III-B). A step
// is: local gradient computation, gradient averaging through the
// communicator, identical Adam+LARC update on every replica. By
// default the averaging is overlapped with backprop: layer gradients
// are bucketed and posted to the communicator's helper thread as they
// become ready (the CPE ML Plugin's pipelining, §III-D), and the step
// only blocks on whatever communication backward failed to hide. The
// replicas stay bit-identical because both the synchronous and the
// bucketed-async allreduce are deterministic — a property the tests
// assert.
//
// The trainer also instruments every stage (conv / pool / dense /
// element-wise / reorder / optimizer / communication / unhidden I/O)
// to regenerate the paper's single-node profile (Fig 3) and per-layer
// table (Table I).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/mlcomm.hpp"
#include "core/metrics.hpp"
#include "core/topology.hpp"
#include "data/pipeline.hpp"
#include "obs/jsonl.hpp"
#include "optim/larc_adam.hpp"
#include "optim/sgd.hpp"
#include "runtime/thread_pool.hpp"

namespace cf::core {

enum class OptimizerKind { kAdamLarc, kAdam, kSgdMomentum };

struct TrainerConfig {
  int nranks = 1;
  int epochs = 4;
  std::uint64_t seed = 0;

  // §III-B hyper-parameters.
  double base_lr = 2e-3;
  double min_lr = 1e-4;
  /// Learning-rate decay horizon in epochs; 0 means "the full run".
  int decay_epochs = 0;
  optim::AdamConfig adam{};
  optim::LarcConfig larc{};
  OptimizerKind optimizer = OptimizerKind::kAdamLarc;
  double sgd_momentum = 0.9;  // used by kSgdMomentum only

  /// Intra-op threads in each rank's private ThreadPool. 0 = auto: the
  /// per-rank budget becomes hardware_threads / nranks (at least 1) and
  /// the dnn::CostModel picks the per-layer grains for that width
  /// (DESIGN.md §2.6). Any value is bitwise-identical to 1 — threading
  /// only re-partitions the kernels' fixed job grids.
  std::size_t threads_per_rank = 1;
  /// Fuse Conv3d/Dense → LeakyRelu pairs into the producer kernels'
  /// epilogues (MKL-DNN post-op style). Bitwise identical to the
  /// unfused graph — false only for ablation (`--no-fusion`).
  bool fuse_eltwise = true;
  /// Liveness-planned diff ping-pong + shared backward scratch arenas
  /// (DESIGN.md §2.2). Placement-only, bitwise identical to per-layer
  /// buffers — false only for ablation (`--no-memplan`).
  bool memplan = true;
  /// Overlap gradient aggregation with backprop (default): as layer
  /// gradients become ready (last layer first) they are coalesced into
  /// ~bucket_bytes buckets and posted to the communicator's helper
  /// thread, hiding allreduce time behind the remaining backward
  /// compute. false = one synchronous allreduce after backward. Both
  /// paths produce bitwise-identical models (the async reduction uses
  /// the same deterministic chunk arithmetic).
  bool overlap_comm = true;
  /// Target async bucket size in bytes; a bucket closes once the ready
  /// gradient region reaches this size. Extremes are valid: 0 posts
  /// one bucket per parameterized layer, huge values post a single
  /// whole-arena bucket.
  std::size_t bucket_bytes = 4u << 20;
  data::PipelineConfig pipeline{};
  bool shuffle = true;
  /// Random cube-orientation augmentation per training draw (48
  /// symmetries; see data/augment.hpp). Validation is never augmented.
  bool augment = true;
  comm::MlCommConfig comm{};
  /// When non-empty, every rank appends one JSONL record per step
  /// (phase/epoch/step/rank/loss/lr plus per-category stage-second
  /// deltas) and rank 0 adds one record per epoch; the records
  /// telescope so their rank-0 per-category sums equal breakdown().
  /// See OBSERVABILITY.md for the schema. Empty disables.
  std::string step_log_path;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double val_loss = 0.0;
  double epoch_seconds = 0.0;
  runtime::TimeStats step_time;  // rank-0 per-step walltime
};

/// Fig 3 category breakdown (seconds accumulated on rank 0). The
/// "comm" entry is critical-path communication (broadcasts, scalar
/// reductions, async-bucket time exposed in wait()); "comm_hidden" is
/// allreduce service time that ran concurrently with backward compute
/// and must NOT be summed into wall-clock accounting.
struct CategoryBreakdown {
  std::map<std::string, double> seconds;  // conv, pool, dense, ...
  double total = 0.0;
  /// hidden / (hidden + exposed) async allreduce seconds on rank 0;
  /// 0 when the synchronous path ran.
  double overlap_fraction = 0.0;
};

class Trainer {
 public:
  Trainer(TopologyConfig topology, const data::SampleSource& train,
          const data::SampleSource& val, TrainerConfig config);

  /// Runs the full training; returns per-epoch statistics.
  std::vector<EpochStats> run();

  const TopologyConfig& topology() const noexcept { return topology_; }
  const TrainerConfig& config() const noexcept { return config_; }

  /// Rank r's replica (valid after run()); replicas are identical.
  dnn::Network& network(int rank = 0);

  /// Rank r's training execution stream (valid after run()); carries
  /// the per-layer profile rows behind breakdown().
  dnn::ExecContext& context(int rank = 0);

  /// Forward pass through the rank-0 replica; returns the raw
  /// (normalized) outputs.
  std::vector<float> predict(const tensor::Tensor& volume);

  /// Evaluates every sample of `source`, mapping normalized outputs
  /// and targets back to physical parameters (3-output networks only).
  std::vector<Prediction> evaluate(const data::SampleSource& source);

  /// Accumulated stage breakdown on rank 0 (Fig 3).
  CategoryBreakdown breakdown() const;

  std::int64_t steps_per_epoch_per_rank() const noexcept {
    return steps_per_epoch_;
  }

 private:
  void rank_body(comm::RankHandle& rank, const data::SampleSource& train,
                 const data::SampleSource& val);
  /// config_.threads_per_rank, with 0 resolved to the cost-model auto
  /// budget: hardware_threads / nranks, at least 1.
  std::size_t resolved_threads_per_rank() const;
  /// Shared pool for predict()/evaluate(), built on first use (the
  /// training pools are per-rank and die with rank_body).
  runtime::ThreadPool& inference_pool();
  /// Forward-only stream over the rank-0 replica for predict()/
  /// evaluate(), built on first use. Deterministic reductions make its
  /// outputs bitwise identical to a training context's forward.
  dnn::ExecContext& inference_context();

  TopologyConfig topology_;
  TrainerConfig config_;
  const data::SampleSource& train_;
  const data::SampleSource& val_;
  std::int64_t steps_per_epoch_ = 0;

  std::vector<std::unique_ptr<dnn::Network>> networks_;
  // One training stream per rank (owned separately from the replica so
  // both survive rank_body for breakdown()/network() readers).
  std::vector<std::unique_ptr<dnn::ExecContext>> contexts_;
  std::unique_ptr<dnn::ExecContext> inference_ctx_;
  std::vector<EpochStats> stats_;
  std::unique_ptr<obs::JsonlSink> step_log_;
  std::unique_ptr<runtime::ThreadPool> inference_pool_;
  // Rank 0's stats, copied when rank 0 leaves rank_body: the Stats,
  // pipelines and communicator that held them end with the run.
  runtime::TimeStats optimizer_time_;
  runtime::TimeStats io_wait_time_;
  runtime::TimeStats comm_time_;
  runtime::TimeStats exposed_comm_time_;
  runtime::TimeStats hidden_comm_time_;
  double train_walltime_ = 0.0;
  bool ran_ = false;
};

}  // namespace cf::core
