#include "core/trainer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cosmo/simulation.hpp"
#include "data/augment.hpp"
#include "dnn/cost_model.hpp"
#include "dnn/loss.hpp"
#include "obs/telemetry.hpp"

namespace cf::core {

using tensor::Tensor;

namespace {

/// Cumulative stage seconds by category: the dnn kinds summed over
/// `ctx`'s profile rows, plus the optimizer, communication and I/O-wait
/// totals. breakdown() reports this map for rank 0, and the step log
/// records its per-step deltas. The dnn keys are seeded: the fusion
/// pass removes standalone activation layers, but the key set — and so
/// the step-log schema and breakdown() — must not depend on fusion.
std::map<std::string, double> category_seconds(const dnn::ExecContext& ctx,
                                               double optimizer,
                                               double comm,
                                               double comm_hidden,
                                               double io_wait) {
  std::map<std::string, double> seconds = {{"conv", 0.0},
                                           {"pool", 0.0},
                                           {"dense", 0.0},
                                           {"activation", 0.0},
                                           {"reorder", 0.0}};
  for (const dnn::LayerProfile& profile : ctx.profiles()) {
    seconds[profile.kind] += profile.fwd.total() +
                             profile.bwd_data.total() +
                             profile.bwd_weights.total();
  }
  seconds["optimizer"] = optimizer;
  seconds["comm"] = comm;
  seconds["comm_hidden"] = comm_hidden;
  seconds["io_wait"] = io_wait;
  return seconds;
}

}  // namespace

Trainer::Trainer(TopologyConfig topology, const data::SampleSource& train,
                 const data::SampleSource& val, TrainerConfig config)
    : topology_(std::move(topology)),
      config_(config),
      train_(train),
      val_(val) {
  if (config_.nranks <= 0 || config_.epochs <= 0) {
    throw std::invalid_argument("Trainer: nranks and epochs must be > 0");
  }
  if (topology_.outputs > 3) {
    throw std::invalid_argument(
        "Trainer: samples carry 3 targets; topology.outputs must be <= 3");
  }
  steps_per_epoch_ = static_cast<std::int64_t>(train.size()) /
                     config_.nranks;
  if (steps_per_epoch_ == 0) {
    throw std::invalid_argument(
        "Trainer: fewer training samples than ranks (data-parallel "
        "training needs substantially more samples than ranks, §VII-B)");
  }
  networks_.resize(static_cast<std::size_t>(config_.nranks));
  contexts_.resize(static_cast<std::size_t>(config_.nranks));
}

std::vector<EpochStats> Trainer::run() {
  if (ran_) throw std::logic_error("Trainer::run: called twice");
  ran_ = true;
  stats_.assign(static_cast<std::size_t>(config_.epochs), EpochStats{});
  if (!config_.step_log_path.empty()) {
    step_log_ = std::make_unique<obs::JsonlSink>(config_.step_log_path);
    if (!step_log_->ok()) {
      throw std::runtime_error("Trainer: cannot open step log " +
                               config_.step_log_path);
    }
  }

  CF_TRACE_SCOPE("trainer/run", "train");
  comm::MlComm comm(config_.nranks, config_.comm);
  const runtime::Stopwatch total_watch;
  comm.run([&](comm::RankHandle& rank) { rank_body(rank, train_, val_); });
  train_walltime_ = total_watch.elapsed_seconds();
  return stats_;
}

void Trainer::rank_body(comm::RankHandle& rank,
                        const data::SampleSource& train,
                        const data::SampleSource& val) {
  const int r = rank.rank();
  const std::size_t threads_per_rank = resolved_threads_per_rank();
  runtime::ThreadPool pool(threads_per_rank);

  obs::Stat opt_stat;
  obs::Stat step_stat;

  // Build this rank's replica; every rank uses the same init seed and
  // rank 0 broadcasts anyway (the Algorithm 2 preamble).
  auto net = std::make_unique<dnn::Network>(
      build_network(topology_, config_.seed, config_.fuse_eltwise,
                    config_.memplan));
  dnn::Network& network = *net;
  networks_[static_cast<std::size_t>(r)] = std::move(net);
  // This rank's execution stream: all per-step mutable state
  // (activations, diffs, scratch, gradients) lives here; the network
  // stays immutable except for the optimizer's weight writes.
  auto ctx_ptr = std::make_unique<dnn::ExecContext>(
      network.make_context(dnn::ExecMode::kTraining));
  dnn::ExecContext& ctx = *ctx_ptr;
  if (config_.threads_per_rank == 0) {
    // Auto mode: one stream per rank is fixed by the data-parallel
    // layout, so the cost model spends the whole per-rank budget on
    // intra-op threads and tunes the per-layer grains for that width.
    // Grains are bitwise-neutral, and every rank derives the identical
    // plan (same geometry, same budget), so replicas stay bit-equal.
    const dnn::CostModel cost_model(network, {}, /*training=*/true);
    ctx.apply_intraop(cost_model.choose(threads_per_rank,
                                        /*max_streams=*/1));
  }
  contexts_[static_cast<std::size_t>(r)] = std::move(ctx_ptr);

  const std::int64_t decay_epochs =
      config_.decay_epochs > 0 ? config_.decay_epochs : config_.epochs;
  const auto schedule = std::make_shared<optim::PolynomialDecay>(
      config_.base_lr, config_.min_lr, decay_epochs * steps_per_epoch_);

  std::unique_ptr<optim::LarcAdam> larc_opt;
  std::unique_ptr<optim::SgdMomentum> sgd_opt;
  switch (config_.optimizer) {
    case OptimizerKind::kAdamLarc:
      larc_opt = std::make_unique<optim::LarcAdam>(
          ctx.params(), config_.adam, config_.larc, schedule);
      break;
    case OptimizerKind::kAdam: {
      optim::LarcConfig pass_through;
      // trust >= any norm ratio with clip keeps eta† = 1: plain Adam.
      pass_through.trust_coefficient = 1e12;
      pass_through.clip = true;
      larc_opt = std::make_unique<optim::LarcAdam>(
          ctx.params(), config_.adam, pass_through, schedule);
      break;
    }
    case OptimizerKind::kSgdMomentum:
      sgd_opt = std::make_unique<optim::SgdMomentum>(
          ctx.params(), config_.sgd_momentum, schedule);
      break;
  }
  const auto optimizer_step = [&] {
    if (larc_opt) {
      larc_opt->step(pool);
    } else {
      sgd_opt->step(pool);
    }
  };

  data::Pipeline train_pipeline(train, config_.pipeline);
  data::Pipeline val_pipeline(val, config_.pipeline);

  // This rank's cumulative stage seconds by category. Step/epoch JSONL
  // records log *deltas* of these totals, so summing a rank's records
  // telescopes back to the totals exactly.
  const auto category_totals = [&] {
    return category_seconds(ctx, opt_stat.snapshot().total(),
                            rank.comm_time().total(),
                            rank.hidden_comm_time().total(),
                            train_pipeline.wait_time().total());
  };
  // Baseline captured before the initial broadcast so the first step's
  // comm delta charges for it.
  std::map<std::string, double> prev_totals =
      step_log_ ? category_totals() : std::map<std::string, double>{};

  // Every replica's parameters live in one contiguous arena, so the
  // initial broadcast needs no staging copy.
  rank.broadcast(network.param_arena(), /*root=*/0);

  // Overlap machinery: ready gradient segments extend [bucket_begin,
  // bucket_end) downward (backward visits layers last to first and the
  // arena is laid out in layer order); a bucket is posted once the
  // region reaches bucket_elems.
  const std::span<float> grads = ctx.grad_arena();
  const std::size_t bucket_elems =
      std::max<std::size_t>(1, config_.bucket_bytes / sizeof(float));
  std::vector<comm::PendingReduce> pending;
  pending.reserve(16);

  const std::int64_t n_outputs = network.output_shape()[0];
  std::vector<float> target(static_cast<std::size_t>(n_outputs));
  Tensor dloss(network.output_shape());

  runtime::Rng augment_rng(config_.seed ^ 0xA46D454E54ULL,
                           static_cast<std::uint64_t>(r));

  // One buffer for every next() of both pipelines across all epochs:
  // each next() hands the previous buffer back to a ring, so a Sample
  // made per epoch would feed the train ring an empty buffer to
  // allocate for every epoch.
  data::Sample sample;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    CF_TRACE_SCOPE("train/epoch", "train");
    const runtime::Stopwatch epoch_watch;
    train_pipeline.start_epoch(data::epoch_indices_for_rank(
        train.size(), config_.nranks, r,
        config_.seed + static_cast<std::uint64_t>(epoch) + 1,
        config_.shuffle));

    double loss_sum = 0.0;
    std::int64_t steps = 0;
    while (steps < steps_per_epoch_ && train_pipeline.next(sample)) {
      CF_TRACE_SCOPE("train/step", "train");
      const runtime::Stopwatch step_watch;
      // Stage the sample straight into the context's input buffer,
      // with the orientation folded into that single copy — no
      // clone-per-step, no second staging memcpy inside forward. The
      // staged bytes match the seed path (orient in place, then copy)
      // exactly, so the trajectory is bitwise-unchanged.
      const std::span<float> staged = ctx.input_staging();
      if (static_cast<std::size_t>(sample.volume.size()) !=
          staged.size()) {
        throw std::invalid_argument(
            "Trainer: sample volume does not match network input shape");
      }
      if (config_.augment) {
        data::orient_volume_into(
            sample.volume, staged,
            static_cast<std::uint32_t>(
                augment_rng.uniform_index(data::kOrientationCount)));
      } else {
        std::memcpy(staged.data(), sample.volume.data(),
                    staged.size() * sizeof(float));
      }
      // Local gradients (Algorithm 2, line 3).
      const Tensor& output = ctx.forward_staged(pool);
      for (std::int64_t i = 0; i < n_outputs; ++i) {
        target[static_cast<std::size_t>(i)] =
            sample.target[static_cast<std::size_t>(i)];
      }
      const double loss = dnn::mse_loss(output.values(), target);
      loss_sum += loss;
      dnn::mse_loss_grad(output.values(), target, dloss.values());
      ctx.zero_grads();

      // Global gradient averaging (line 4) — either launched in
      // buckets during backward (grad_ready fires tail-first as each
      // layer's weight gradients finish) and drained after, or one
      // synchronous in-place allreduce over the arena. No flat-vector
      // staging copies either way.
      if (config_.overlap_comm) {
        pending.clear();
        std::size_t bucket_begin = grads.size();
        std::size_t bucket_end = grads.size();
        ctx.backward(dloss, pool, [&](std::size_t layer) {
          bucket_begin = network.segment_offset(layer);
          if (bucket_end - bucket_begin >= bucket_elems) {
            pending.push_back(rank.allreduce_average_async(grads.subspan(
                bucket_begin, bucket_end - bucket_begin)));
            bucket_end = bucket_begin;
          }
        });
        if (bucket_end > bucket_begin) {
          pending.push_back(rank.allreduce_average_async(
              grads.subspan(bucket_begin, bucket_end - bucket_begin)));
        }
        for (comm::PendingReduce& p : pending) rank.wait(p);
      } else {
        ctx.backward(dloss, pool);
        rank.allreduce_average(grads);
      }

      // Identical model update on every replica (line 5).
      {
        CF_TRACE_SCOPE("train/optimizer", "optim");
        const obs::ScopedStatTimer opt_timer(opt_stat);
        optimizer_step();
      }
      ++steps;
      const double step_seconds = step_watch.elapsed_seconds();
      step_stat.add(step_seconds);
      if (step_log_) {
        std::map<std::string, double> totals = category_totals();
        obs::JsonObject rec;
        rec.field("phase", "step")
            .field("epoch", epoch)
            .field("step", static_cast<std::int64_t>(steps - 1))
            .field("rank", r)
            .field("loss", loss)
            .field("lr", larc_opt ? larc_opt->last_lr()
                                  : schedule->lr(sgd_opt->steps_taken() - 1))
            .field("sec_step", step_seconds);
        for (const auto& [category, total] : totals) {
          rec.field("sec_" + category, total - prev_totals[category]);
        }
        // Standalone element-wise sweep time; 0 when fused (the eltwise
        // work then lives inside sec_conv / sec_dense).
        rec.field("sec_eltwise",
                  totals.at("activation") - prev_totals["activation"]);
        rec.field("activation_bytes",
                  static_cast<std::int64_t>(network.activation_bytes()))
            .field("diff_arena_bytes",
                   static_cast<std::int64_t>(network.diff_arena_bytes()))
            .field("scratch_bytes",
                   static_cast<std::int64_t>(network.scratch_bytes()));
        step_log_->write(rec);
        prev_totals = std::move(totals);
      }
    }
    const double train_loss =
        rank.allreduce_average_scalar(loss_sum /
                                      static_cast<double>(steps));

    // Validation loop: forward + loss only, averaged across ranks.
    double val_sum = 0.0;
    std::int64_t val_steps = 0;
    {
      CF_TRACE_SCOPE("train/validate", "train");
      val_pipeline.start_epoch(data::epoch_indices_for_rank(
          val.size(), config_.nranks, r, /*epoch_seed=*/0,
          /*shuffle=*/false));
      while (val_pipeline.next(sample)) {
        const std::span<float> staged = ctx.input_staging();
        if (static_cast<std::size_t>(sample.volume.size()) !=
            staged.size()) {
          throw std::invalid_argument(
              "Trainer: sample volume does not match network input "
              "shape");
        }
        std::memcpy(staged.data(), sample.volume.data(),
                    staged.size() * sizeof(float));
        const Tensor& output = ctx.forward_staged(pool);
        for (std::int64_t i = 0; i < n_outputs; ++i) {
          target[static_cast<std::size_t>(i)] =
              sample.target[static_cast<std::size_t>(i)];
        }
        val_sum += dnn::mse_loss(output.values(), target);
        ++val_steps;
      }
    }
    const double val_loss = rank.allreduce_average_scalar(
        val_steps > 0 ? val_sum / static_cast<double>(val_steps) : 0.0);

    rank.barrier();  // epoch walltime measured across all ranks
    if (r == 0) {
      EpochStats& es = stats_[static_cast<std::size_t>(epoch)];
      es.epoch = epoch;
      es.train_loss = train_loss;
      es.val_loss = val_loss;
      es.epoch_seconds = epoch_watch.elapsed_seconds();
      es.step_time = step_stat.snapshot();
      step_stat.reset();
      if (step_log_) {
        // The epoch record carries the residual deltas (validation
        // forward passes, scalar reductions) so the record stream
        // telescopes to the cumulative totals with nothing missing.
        std::map<std::string, double> totals = category_totals();
        obs::JsonObject rec;
        rec.field("phase", "epoch")
            .field("epoch", epoch)
            .field("rank", r)
            .field("train_loss", train_loss)
            .field("val_loss", val_loss)
            .field("epoch_seconds", es.epoch_seconds);
        for (const auto& [category, total] : totals) {
          rec.field("sec_" + category, total - prev_totals[category]);
        }
        rec.field("sec_eltwise",
                  totals.at("activation") - prev_totals["activation"]);
        step_log_->write(rec);
        prev_totals = std::move(totals);
      }
    }
  }

  if (r == 0) {
    // The Stats, the pipelines and the communicator end with the run;
    // breakdown() reads these copies.
    optimizer_time_ = opt_stat.snapshot();
    io_wait_time_ = train_pipeline.wait_time();
    comm_time_ = rank.comm_time();
    exposed_comm_time_ = rank.exposed_comm_time();
    hidden_comm_time_ = rank.hidden_comm_time();
  }
}

dnn::Network& Trainer::network(int rank) {
  if (!ran_) throw std::logic_error("Trainer::network: run() first");
  auto& net = networks_.at(static_cast<std::size_t>(rank));
  if (!net) throw std::logic_error("Trainer::network: rank not trained");
  return *net;
}

dnn::ExecContext& Trainer::context(int rank) {
  if (!ran_) throw std::logic_error("Trainer::context: run() first");
  auto& ctx = contexts_.at(static_cast<std::size_t>(rank));
  if (!ctx) throw std::logic_error("Trainer::context: rank not trained");
  return *ctx;
}

std::size_t Trainer::resolved_threads_per_rank() const {
  if (config_.threads_per_rank != 0) return config_.threads_per_rank;
  const std::size_t hw = runtime::ThreadPool::default_num_threads();
  return std::max<std::size_t>(
      1, hw / static_cast<std::size_t>(std::max(1, config_.nranks)));
}

runtime::ThreadPool& Trainer::inference_pool() {
  if (!inference_pool_) {
    inference_pool_ =
        std::make_unique<runtime::ThreadPool>(resolved_threads_per_rank());
  }
  return *inference_pool_;
}

dnn::ExecContext& Trainer::inference_context() {
  if (!inference_ctx_) {
    inference_ctx_ = std::make_unique<dnn::ExecContext>(
        network(0).make_context(dnn::ExecMode::kInference));
    if (config_.threads_per_rank == 0) {
      const dnn::CostModel cost_model(network(0));
      inference_ctx_->apply_intraop(cost_model.choose(
          resolved_threads_per_rank(), /*max_streams=*/1));
    }
  }
  return *inference_ctx_;
}

std::vector<float> Trainer::predict(const Tensor& volume) {
  const Tensor& out = inference_context().forward(volume, inference_pool());
  return out.to_vector();
}

std::vector<Prediction> Trainer::evaluate(const data::SampleSource& source) {
  dnn::Network& net = network(0);
  if (net.output_shape()[0] != 3) {
    throw std::logic_error(
        "Trainer::evaluate: physical-unit evaluation needs 3 outputs");
  }
  runtime::ThreadPool& pool = inference_pool();
  dnn::ExecContext& ctx = inference_context();
  const auto reader = source.make_reader();
  std::vector<Prediction> predictions;
  predictions.reserve(source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    const data::Sample sample = reader->get(i);
    const Tensor& out = ctx.forward(sample.volume, pool);
    const cosmo::CosmoParams pred = cosmo::denormalize_params(
        {out[0], out[1], out[2]});
    const cosmo::CosmoParams truth = cosmo::denormalize_params(
        {sample.target[0], sample.target[1], sample.target[2]});
    Prediction p;
    p.predicted = {pred.omega_m, pred.sigma8, pred.ns};
    p.truth = {truth.omega_m, truth.sigma8, truth.ns};
    predictions.push_back(p);
  }
  return predictions;
}

CategoryBreakdown Trainer::breakdown() const {
  if (!ran_) throw std::logic_error("Trainer::breakdown: run() first");
  CategoryBreakdown breakdown;
  // The same map the per-step totals come from, so the JSONL records
  // telescope to it key for key, fused or not.
  breakdown.seconds = category_seconds(
      *contexts_.front(), optimizer_time_.total(), comm_time_.total(),
      hidden_comm_time_.total(), io_wait_time_.total());
  breakdown.total = train_walltime_;
  const double hidden = hidden_comm_time_.total();
  const double exposed = exposed_comm_time_.total();
  breakdown.overlap_fraction =
      hidden + exposed > 0.0 ? hidden / (hidden + exposed) : 0.0;
  return breakdown;
}

}  // namespace cf::core
