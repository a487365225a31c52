// train-128 and train-32x4.
//
// Untraced run: repeated set-ups of source + core::Trainer, each running
// Trainer::run for a fixed number of epochs whose first is the warm-up,
// then a few Trainer::predict calls on the trained model (a gate).
//
// Traced run: the harness restates the Trainer's step
// (Algorithm 2) through the layers' public calls, with a span around
// each call. Until spans move into the program this replay is the one
// place that restates the step. The replay's final weights must equal
// Trainer::run's bitwise, or the traced run fails; bench.trace_overhead
// (untraced Trainer::run vs replay throughput, same process) is the
// second alarm that it has drifted from the Trainer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "comm/mlcomm.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "data/augment.hpp"
#include "data/dataset.hpp"
#include "data/pipeline.hpp"
#include "dnn/cost_model.hpp"
#include "dnn/loss.hpp"
#include "inputs.hpp"
#include "optim/larc_adam.hpp"
#include "optim/lr_schedule.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace cfbench {

namespace {

using cf::data::Sample;
using cf::data::SampleSource;

struct TrainSpec {
  const char* preset;
  int nranks;
  bool shards;  // compute + I/O: read through CfrecordSource
  std::int64_t dhw;
  std::size_t train_sims, val_sims;
  std::size_t train_take, val_take;  // 0 keeps every sub-volume
  int epochs;                        // per Trainer::run; epoch 0 warms up
};

TrainSpec spec_for(const std::string& workload) {
  // train-128: Table I's configuration, kept short per epoch so that one
  // run holds several set-ups (each Trainer::run warms up for a whole
  // epoch). train-32x4: Fig 3's SSGD configuration.
  if (workload == "train-128") {
    return {"cosmoflow-128", 1, false, 128, 1, 1, 2, 1, 4};
  }
  return {"cosmoflow-32", 4, true, 32, 8, 2, 0, 0, 5};
}

// Sub-seed purposes of the workload seed.
constexpr std::uint64_t kSeedData = 1;
constexpr std::uint64_t kSeedShards = 2;
constexpr std::uint64_t kSeedTrainer = 3;

// The per-rank augmentation stream of core::Trainer (trainer.cpp);
// restated so that the traced replay draws the same orientations.
constexpr std::uint64_t kTrainerAugmentSalt = 0xA46D454E54ULL;

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

/// The workload's inputs: simulated sub-volumes, plus their shards for
/// the I/O workload. Made before set-up starts.
class TrainInputs {
 public:
  TrainInputs(const TrainSpec& spec, const RunOptions& options)
      : spec_(spec),
        split_(simulate_split(spec.dhw, spec.train_sims, spec.val_sims,
                              spec.train_take, spec.val_take,
                              sub_seed(options.seed, kSeedData))) {
    if (!spec.shards) return;
    dir_ = std::filesystem::path(options.out_dir) /
           ("shards-" + options.workload + "-" + std::to_string(options.seed));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    // 16 sub-volumes per shard; the seed decides which shard holds which.
    const std::uint64_t shard_seed = sub_seed(options.seed, kSeedShards);
    train_shards_ = cf::data::write_shards(split_.train, dir_.string(),
                                           "train", 16, shard_seed);
    val_shards_ = cf::data::write_shards(split_.val, dir_.string(), "val",
                                         16, shard_seed + 1);
  }
  ~TrainInputs() {
    std::error_code ignored;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ignored);
  }
  TrainInputs(const TrainInputs&) = delete;
  TrainInputs& operator=(const TrainInputs&) = delete;

  /// Empty when the shards read back intact (or there are none).
  std::string check_shards() const {
    if (!spec_.shards) return {};
    std::string why = verify_shards(train_shards_, split_.train);
    return why.empty() ? verify_shards(val_shards_, split_.val) : why;
  }

  const std::vector<Sample>& train() const { return split_.train; }
  const std::vector<Sample>& val() const { return split_.val; }

  /// Untimed preparation of one set-up's in-memory samples (none when
  /// the sources read shards).
  struct Prepared {
    std::vector<Sample> train, val;
  };
  Prepared prepare() const {
    if (spec_.shards) return {};
    return {clone_all(split_.train), clone_all(split_.val)};
  }

  /// The program's sources: this is where set-up begins.
  struct Sources {
    std::unique_ptr<SampleSource> train, val;
  };
  Sources make_sources(Prepared prepared) const {
    if (spec_.shards) {
      return {std::make_unique<cf::data::CfrecordSource>(train_shards_),
              std::make_unique<cf::data::CfrecordSource>(val_shards_)};
    }
    return {std::make_unique<cf::data::InMemorySource>(
                std::move(prepared.train)),
            std::make_unique<cf::data::InMemorySource>(
                std::move(prepared.val))};
  }

 private:
  TrainSpec spec_;
  SimulatedSplit split_;
  std::filesystem::path dir_;
  std::vector<std::string> train_shards_, val_shards_;
};

cf::core::TrainerConfig trainer_config(const TrainSpec& spec,
                                       const RunOptions& options) {
  // Only these fields are set; everything else keeps its default.
  cf::core::TrainerConfig config;
  config.nranks = spec.nranks;
  config.epochs = spec.epochs;
  config.seed = sub_seed(options.seed, kSeedTrainer);
  config.threads_per_rank = 0;
  return config;
}

std::vector<float> params_of(const cf::dnn::Network& net) {
  std::vector<float> params(static_cast<std::size_t>(net.param_count()));
  net.copy_params_to(params);
  return params;
}

/// One set-up plus Trainer::run.
struct TrainerRun {
  TrainInputs::Sources sources;
  std::unique_ptr<cf::core::Trainer> trainer;
  std::vector<cf::core::EpochStats> epochs;
  double setup_s = 0.0;  // set-up start to the first timed epoch
  double timed_s = 0.0;  // the timed epochs, as Trainer::run reports them
  std::int64_t timed_samples = 0;
  std::int64_t steps = 0;  // every step of the run, across ranks' lockstep
};

std::unique_ptr<TrainerRun> run_trainer(const TrainSpec& spec,
                                        const TrainInputs& inputs,
                                        const cf::core::TrainerConfig& config) {
  auto run = std::make_unique<TrainerRun>();
  TrainInputs::Prepared prepared = inputs.prepare();
  const std::int64_t start = now_ns();
  run->sources = inputs.make_sources(std::move(prepared));
  run->trainer = std::make_unique<cf::core::Trainer>(
      cf::core::preset_topology(spec.preset), *run->sources.train,
      *run->sources.val, config);
  run->epochs = run->trainer->run();
  const double total = seconds_since(start);
  const std::int64_t steps_per_epoch =
      run->trainer->steps_per_epoch_per_rank();
  for (std::size_t e = 1; e < run->epochs.size(); ++e) {
    run->timed_s += run->epochs[e].epoch_seconds;
    run->timed_samples += steps_per_epoch * spec.nranks;
  }
  run->setup_s = total - run->timed_s;
  run->steps = steps_per_epoch * spec.epochs;
  return run;
}

/// Correctness gates on a finished Trainer::run: finite losses, and
/// every replica bitwise equal to rank 0's. Empty when they hold.
std::string check_trainer_run(const TrainerRun& run, int nranks) {
  for (const cf::core::EpochStats& e : run.epochs) {
    if (!std::isfinite(e.train_loss) || !std::isfinite(e.val_loss)) {
      return "non-finite loss in epoch " + std::to_string(e.epoch);
    }
  }
  const std::vector<float> reference = params_of(run.trainer->network(0));
  for (int r = 1; r < nranks; ++r) {
    if (!same_bits(params_of(run.trainer->network(r)), reference)) {
      return "rank " + std::to_string(r) + "'s replica differs from rank 0's";
    }
  }
  return {};
}

bool same_losses(const std::vector<cf::core::EpochStats>& a,
                 const std::vector<cf::core::EpochStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t e = 0; e < a.size(); ++e) {
    if (std::memcmp(&a[e].train_loss, &b[e].train_loss, sizeof(double)) != 0 ||
        std::memcmp(&a[e].val_loss, &b[e].val_loss, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// --- untraced run ------------------------------------------------------

void train_end_to_end(const TrainSpec& spec, const RunOptions& options,
                      const TrainInputs& inputs, Report& report) {
  const cf::core::TrainerConfig config = trainer_config(spec, options);
  const std::int64_t start = now_ns();

  std::vector<double> setups, step_ms, fastest_step_ms, predict_ms;
  double timed_s = 0.0;
  std::int64_t timed_samples = 0;
  std::vector<cf::core::EpochStats> first_epochs;
  const std::vector<Sample>& val = inputs.val();
  std::vector<std::vector<float>> first_output(val.size());
  double longest = 0.0;
  std::unique_ptr<TrainerRun> run;
  while (true) {
    run.reset();  // one model in memory at a time
    const std::int64_t repeat_start = now_ns();
    try {
      run = run_trainer(spec, inputs, config);
    } catch (const std::exception& e) {
      report.attempt(spec.epochs);
      report.fail(spec.epochs, std::string("Trainer::run threw: ") + e.what());
      return;
    }
    report.attempt(run->steps);
    std::string why = check_trainer_run(*run, spec.nranks);
    if (why.empty() && !first_epochs.empty() &&
        !same_losses(run->epochs, first_epochs)) {
      why = "losses differ between two runs with the same seed";
    }
    if (!why.empty()) {
      report.fail(run->steps, why);
      return;
    }
    if (first_epochs.empty()) first_epochs = run->epochs;
    setups.push_back(run->setup_s);
    timed_s += run->timed_s;
    timed_samples += run->timed_samples;
    for (std::size_t e = 1; e < run->epochs.size(); ++e) {
      step_ms.push_back(1e3 * run->epochs[e].step_time.mean());
      fastest_step_ms.push_back(1e3 * run->epochs[e].step_time.min());
    }

    // Trainer::predict on the trained model, one caller: each held-out
    // sub-volume once, and at least three calls. The first call builds
    // its context and is not timed. Every output must repeat bitwise,
    // call after call and run after run (each run trains the same
    // model). Its latency is printed, not a metric (METRICS.md).
    run->trainer->predict(val.front().volume);
    for (std::size_t i = 0; i < std::max<std::size_t>(3, val.size()); ++i) {
      const std::size_t k = i % val.size();
      const std::int64_t t0 = now_ns();
      std::vector<float> out = run->trainer->predict(val[k].volume);
      predict_ms.push_back(1e3 * seconds_since(t0));
      report.attempt(1);
      if (first_output[k].empty()) {
        first_output[k] = std::move(out);
      } else if (!same_bits(out, first_output[k])) {
        report.fail(1, "Trainer::predict output differs for the same input");
      }
    }
    // Stop at the set-up whose end lands nearest to --seconds.
    longest = std::max(longest, seconds_since(repeat_start));
    if (seconds_since(start) + 0.5 * longest > options.seconds) break;
  }

  report.add("setup_s", median(setups), "s", setups.size(),
             "median over set-ups; source+Trainer to first timed epoch");
  report.add("samples_per_s", static_cast<double>(timed_samples) / timed_s,
             "samples/s", static_cast<std::size_t>(timed_samples),
             "timed epochs incl. validation, all ranks");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.add("latency_p50_ms.light", median(fastest_step_ms), "ms",
             fastest_step_ms.size(), "SSGD step, fastest per timed epoch");
  report.add("latency_p50_ms.heavy", median(step_ms), "ms", step_ms.size(),
             "SSGD step, mean per timed epoch");
  std::printf("printed, not metrics: Trainer::predict p50 %.4g ms, p90 %.4g "
              "ms (%zu calls); SSGD step p90 %.4g ms (%zu epochs)\n",
              median(predict_ms), nearest_rank(predict_ms, 90.0),
              predict_ms.size(), nearest_rank(step_ms, 90.0), step_ms.size());
  std::printf("val_loss after %lld training samples: %.9g (bitwise equal in "
              "all %zu runs); train_loss %.9g\n",
              static_cast<long long>(run->steps * spec.nranks),
              first_epochs.back().val_loss, setups.size(),
              first_epochs.back().train_loss);
}

// --- traced run: the harness's restatement of the Trainer's step --------

struct ReplayRun {
  std::vector<SpanLane> lanes;  // one per rank
  std::unique_ptr<cf::dnn::Network> net0;
  std::size_t ctx_bytes = 0;
  std::size_t threads = 0;
  double timed_s = 0.0;
  std::int64_t timed_samples = 0;
  std::int64_t steps = 0;  // every step of the run, across ranks' lockstep
};

ReplayRun run_replay(const TrainSpec& spec, const cf::core::TrainerConfig& config,
                     const SampleSource& train, const SampleSource& val) {
  if (!config.overlap_comm || config.optimizer != cf::core::OptimizerKind::kAdamLarc) {
    throw std::logic_error(
        "the replay restates only the Trainer's default path (overlapped "
        "allreduce, Adam+LARC)");
  }
  const cf::core::TopologyConfig topology = cf::core::preset_topology(spec.preset);
  const int nranks = config.nranks;
  const std::int64_t steps_per_epoch =
      static_cast<std::int64_t>(train.size()) / nranks;
  ReplayRun out;
  out.lanes.resize(static_cast<std::size_t>(nranks));
  out.threads =
      config.threads_per_rank != 0
          ? config.threads_per_rank
          : std::max<std::size_t>(
                1, cf::runtime::ThreadPool::default_num_threads() /
                       static_cast<std::size_t>(nranks));

  cf::comm::MlComm comm(nranks, config.comm);
  comm.run([&](cf::comm::RankHandle& rank) {
    const int r = rank.rank();
    SpanLane& lane = out.lanes[static_cast<std::size_t>(r)];
    lane.rank = r;
    lane.reserve(static_cast<std::size_t>(config.epochs * steps_per_epoch) * 16 + 64);
    cf::runtime::ThreadPool pool(out.threads);

    auto net = std::make_unique<cf::dnn::Network>(cf::core::build_network(
        topology, config.seed, config.fuse_eltwise, config.memplan));
    cf::dnn::ExecContext ctx = net->make_context(cf::dnn::ExecMode::kTraining);
    if (config.threads_per_rank == 0) {
      const cf::dnn::CostModel cost_model(*net, {}, /*training=*/true);
      ctx.apply_intraop(cost_model.choose(out.threads, /*max_streams=*/1));
    }
    const std::int64_t decay_epochs =
        config.decay_epochs > 0 ? config.decay_epochs : config.epochs;
    const auto schedule = std::make_shared<cf::optim::PolynomialDecay>(
        config.base_lr, config.min_lr, decay_epochs * steps_per_epoch);
    cf::optim::LarcAdam optimizer(ctx.params(), config.adam, config.larc,
                                  schedule);
    cf::data::PipelineConfig train_cfg = config.pipeline;
    train_cfg.metric_prefix = "cfbench/r" + std::to_string(r) + "/train";
    cf::data::PipelineConfig val_cfg = config.pipeline;
    val_cfg.metric_prefix = "cfbench/r" + std::to_string(r) + "/val";
    cf::data::Pipeline train_pipeline(train, train_cfg);
    cf::data::Pipeline val_pipeline(val, val_cfg);

    {
      ScopedSpan span(lane, "comm.broadcast");
      rank.broadcast(net->param_arena(), /*root=*/0);
    }

    const std::span<float> grads = ctx.grad_arena();
    const std::size_t bucket_elems =
        std::max<std::size_t>(1, config.bucket_bytes / sizeof(float));
    std::vector<cf::comm::PendingReduce> pending;
    const std::int64_t n_outputs = net->output_shape()[0];
    std::vector<float> target(static_cast<std::size_t>(n_outputs));
    cf::tensor::Tensor dloss(net->output_shape());
    cf::runtime::Rng augment_rng(config.seed ^ kTrainerAugmentSalt,
                                 static_cast<std::uint64_t>(r));
    const auto post = [&](std::size_t begin, std::size_t end) {
      const std::uint32_t id = lane.begin("comm.post");
      pending.push_back(
          rank.allreduce_average_async(grads.subspan(begin, end - begin)));
      lane.end(id);
      lane.set_bytes(id, static_cast<std::int64_t>((end - begin) * sizeof(float)));
    };
    const auto stage = [&](const Sample& sample, bool augment) {
      const std::span<float> staged = ctx.input_staging();
      if (static_cast<std::size_t>(sample.volume.size()) != staged.size()) {
        throw std::invalid_argument("replay: sample does not match input");
      }
      ScopedSpan span(lane, "data.stage");
      if (augment) {
        cf::data::orient_volume_into(
            sample.volume, staged,
            static_cast<std::uint32_t>(
                augment_rng.uniform_index(cf::data::kOrientationCount)));
      } else {
        std::memcpy(staged.data(), sample.volume.data(),
                    staged.size() * sizeof(float));
      }
    };

    Sample sample;
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      lane.epoch = epoch;
      lane.step = -1;
      const std::uint32_t epoch_span = lane.begin("core.epoch");
      train_pipeline.start_epoch(cf::data::epoch_indices_for_rank(
          train.size(), nranks, r,
          config.seed + static_cast<std::uint64_t>(epoch) + 1, config.shuffle));
      double loss_sum = 0.0;
      std::int64_t steps = 0;
      while (steps < steps_per_epoch) {
        lane.step = static_cast<std::int32_t>(steps);
        bool got = false;
        {
          ScopedSpan span(lane, "data.next");
          got = train_pipeline.next(sample);
        }
        if (!got) break;
        ScopedSpan step_span(lane, "core.step");
        stage(sample, config.augment);
        const cf::tensor::Tensor* output = nullptr;
        {
          ScopedSpan span(lane, "dnn.fwd");
          output = &ctx.forward_staged(pool);
        }
        {
          ScopedSpan span(lane, "core.loss");
          for (std::int64_t i = 0; i < n_outputs; ++i) {
            target[static_cast<std::size_t>(i)] =
                sample.target[static_cast<std::size_t>(i)];
          }
          loss_sum += cf::dnn::mse_loss(output->values(), target);
          cf::dnn::mse_loss_grad(output->values(), target, dloss.values());
        }
        {
          ScopedSpan span(lane, "core.zero_grads");
          ctx.zero_grads();
        }
        pending.clear();
        std::size_t bucket_begin = grads.size();
        std::size_t bucket_end = grads.size();
        {
          ScopedSpan span(lane, "dnn.bwd");
          ctx.backward(dloss, pool, [&](std::size_t layer) {
            bucket_begin = net->segment_offset(layer);
            if (bucket_end - bucket_begin >= bucket_elems) {
              post(bucket_begin, bucket_end);
              bucket_end = bucket_begin;
            }
          });
        }
        if (bucket_end > bucket_begin) post(bucket_begin, bucket_end);
        for (cf::comm::PendingReduce& p : pending) {
          ScopedSpan span(lane, "comm.wait");
          rank.wait(p);
        }
        {
          ScopedSpan span(lane, "optim.step");
          optimizer.step(pool);
        }
        ++steps;
      }
      lane.step = -1;
      {
        ScopedSpan span(lane, "comm.scalar");
        rank.allreduce_average_scalar(loss_sum / static_cast<double>(steps));
      }
      double val_sum = 0.0;
      std::int64_t val_steps = 0;
      {
        ScopedSpan validate(lane, "core.validate");
        val_pipeline.start_epoch(cf::data::epoch_indices_for_rank(
            val.size(), nranks, r, /*epoch_seed=*/0, /*shuffle=*/false));
        while (true) {
          bool got = false;
          {
            ScopedSpan span(lane, "data.next");
            got = val_pipeline.next(sample);
          }
          if (!got) break;
          stage(sample, /*augment=*/false);
          const cf::tensor::Tensor* output = nullptr;
          {
            ScopedSpan span(lane, "dnn.fwd");
            output = &ctx.forward_staged(pool);
          }
          for (std::int64_t i = 0; i < n_outputs; ++i) {
            target[static_cast<std::size_t>(i)] =
                sample.target[static_cast<std::size_t>(i)];
          }
          val_sum += cf::dnn::mse_loss(output->values(), target);
          ++val_steps;
        }
      }
      {
        ScopedSpan span(lane, "comm.scalar");
        rank.allreduce_average_scalar(
            val_steps > 0 ? val_sum / static_cast<double>(val_steps) : 0.0);
      }
      {
        ScopedSpan span(lane, "comm.barrier");
        rank.barrier();
      }
      lane.end(epoch_span);
    }
    if (r == 0) {
      out.ctx_bytes = ctx.total_bytes();
      out.net0 = std::move(net);
    }
  });

  out.steps = steps_per_epoch * config.epochs;
  const std::vector<Span>& spans0 = out.lanes.front().spans();
  for (const Span& s : spans0) {
    if (std::strcmp(s.name, "core.epoch") == 0 && s.epoch >= 1) {
      out.timed_s += s.seconds();
      out.timed_samples += steps_per_epoch * nranks;
    }
  }
  return out;
}

/// Per-step (and per-bucket) samples of the traced layers, from the
/// timed epochs (epoch >= 1) of replay runs.
struct LayerSamples {
  std::vector<double> step_ms, self_ms, wait_data_ms, stage_ms, fwd_ms,
      bwd_ms, optim_ms, post_us, comm_wait_ms, hidden_frac, skew_ms,
      broadcast_ms, buckets, mb;
};

bool is(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

void collect_layer_samples(const ReplayRun& run, LayerSamples& out) {
  const std::vector<Span>& spans = run.lanes.front().spans();
  const std::vector<double> self = self_seconds(spans);
  struct StepAgg {
    double wait_s = 0.0;
    int buckets = 0;
    std::int64_t bytes = 0;
    std::vector<const Span*> posts, waits;
  };
  std::map<std::pair<int, int>, StepAgg> steps;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (is(s, "comm.broadcast")) out.broadcast_ms.push_back(1e3 * s.seconds());
    if (s.epoch < 1 || s.step < 0) continue;  // warm-up epoch, validation
    const std::pair<int, int> key{s.epoch, s.step};
    if (is(s, "core.step")) {
      out.step_ms.push_back(1e3 * s.seconds());
      out.self_ms.push_back(1e3 * self[i]);
      steps[key];
    } else if (is(s, "data.next")) {
      out.wait_data_ms.push_back(1e3 * s.seconds());
    } else if (is(s, "data.stage")) {
      out.stage_ms.push_back(1e3 * s.seconds());
    } else if (is(s, "dnn.fwd")) {
      out.fwd_ms.push_back(1e3 * s.seconds());
    } else if (is(s, "dnn.bwd")) {
      out.bwd_ms.push_back(1e3 * self[i]);  // minus the posts inside it
    } else if (is(s, "optim.step")) {
      out.optim_ms.push_back(1e3 * s.seconds());
    } else if (is(s, "comm.post")) {
      out.post_us.push_back(1e6 * s.seconds());
      StepAgg& agg = steps[key];
      ++agg.buckets;
      agg.bytes += s.bytes;
      agg.posts.push_back(&s);
    } else if (is(s, "comm.wait")) {
      StepAgg& agg = steps[key];
      agg.wait_s += s.seconds();
      agg.waits.push_back(&s);
    }
  }
  for (const auto& [key, agg] : steps) {
    out.comm_wait_ms.push_back(1e3 * agg.wait_s);
    out.buckets.push_back(agg.buckets);
    out.mb.push_back(1e-6 * static_cast<double>(agg.bytes));
    // Bucket k is posted by posts[k] and redeemed by waits[k].
    for (std::size_t k = 0; k < agg.posts.size() && k < agg.waits.size(); ++k) {
      const double interval = 1e-9 * static_cast<double>(
                                         agg.waits[k]->end_ns - agg.posts[k]->start_ns);
      if (interval > 0.0) {
        out.hidden_frac.push_back(1.0 - agg.waits[k]->seconds() / interval);
      }
    }
  }
  // Straggler skew: per step, the spread of the ranks' first wait entry.
  std::map<std::pair<int, int>, std::pair<std::int64_t, std::int64_t>> entry;
  for (const SpanLane& lane : run.lanes) {
    std::map<std::pair<int, int>, std::int64_t> first;
    for (const Span& s : lane.spans()) {
      if (s.epoch < 1 || s.step < 0 || !is(s, "comm.wait")) continue;
      first.emplace(std::make_pair(s.epoch, s.step), s.start_ns);
    }
    for (const auto& [key, t] : first) {
      auto [it, inserted] = entry.emplace(key, std::make_pair(t, t));
      if (!inserted) {
        it->second.first = std::min(it->second.first, t);
        it->second.second = std::max(it->second.second, t);
      }
    }
  }
  for (const auto& [key, range] : entry) {
    out.skew_ms.push_back(1e-6 * static_cast<double>(range.second - range.first));
  }
}

void train_traced(const TrainSpec& spec, const RunOptions& options,
                  const TrainInputs& inputs, Report& report) {
  const cf::core::TrainerConfig config = trainer_config(spec, options);
  const std::int64_t start = now_ns();

  // Untraced reference in the same process: one Trainer::run.
  std::unique_ptr<TrainerRun> reference;
  try {
    reference = run_trainer(spec, inputs, config);
  } catch (const std::exception& e) {
    report.attempt(spec.epochs);
    report.fail(spec.epochs, std::string("Trainer::run threw: ") + e.what());
    return;
  }
  report.attempt(reference->steps);
  if (const std::string why = check_trainer_run(*reference, spec.nranks);
      !why.empty()) {
    report.fail(reference->steps, why);
    return;
  }
  const double untraced_sps =
      static_cast<double>(reference->timed_samples) / reference->timed_s;
  const std::vector<float> trainer_params =
      params_of(reference->trainer->network(0));
  reference.reset();

  // Traced replay runs, on fresh sources each, while the budget lasts.
  LayerSamples samples;
  std::vector<ReplayRun> runs;
  double traced_s = 0.0;
  std::int64_t traced_samples = 0;
  bool bitwise = true;
  double longest = 0.0;
  while (runs.empty() ||
         seconds_since(start) + longest < 0.85 * options.seconds) {
    // Only the last run's model is kept (for the inference contexts).
    if (!runs.empty()) runs.back().net0.reset();
    const std::int64_t t0 = now_ns();
    TrainInputs::Sources sources = inputs.make_sources(inputs.prepare());
    ReplayRun run;
    try {
      run = run_replay(spec, config, *sources.train, *sources.val);
    } catch (const std::exception& e) {
      report.attempt(spec.epochs);
      report.fail(spec.epochs, std::string("traced replay threw: ") + e.what());
      return;
    }
    report.attempt(run.steps);
    bitwise = bitwise && same_bits(params_of(*run.net0), trainer_params);
    collect_layer_samples(run, samples);
    traced_s += run.timed_s;
    traced_samples += run.timed_samples;
    longest = std::max(longest, seconds_since(t0));
    runs.push_back(std::move(run));
  }
  const ReplayRun& last = runs.back();
  const double traced_sps = static_cast<double>(traced_samples) / traced_s;
  // The replay stands in for Trainer::run; per-layer figures of a step
  // that no longer matches it would describe another program.
  report.attempt(1);
  if (bitwise) {
    std::printf("replay reproduces Trainer::run bitwise: yes\n");
  } else {
    report.fail(1, "replay drifted from Trainer::run (final weights differ)");
  }

  std::vector<const cf::tensor::Tensor*> held_out;
  for (const Sample& s : inputs.val()) held_out.push_back(&s.volume);
  const std::vector<double> infer_ms =
      concurrent_forward_ms(*last.net0, held_out, 1.0, nullptr);
  const cf::dnn::FlopCounts flops = last.net0->flops();
  const double predicted =
      cf::dnn::CostModel(*last.net0, {}, /*training=*/true)
          .predicted_seconds(last.threads);
  const double fwd = median(samples.fwd_ms), bwd = median(samples.bwd_ms);
  const std::size_t n_steps = samples.step_ms.size();
  const auto timing = [&](const char* name, const std::vector<double>& v,
                          const char* unit) {
    report.add(name, median(v), unit, v.size());
    report.add(std::string(name) + ".p90", nearest_rank(v, 90.0), unit, v.size());
  };
  timing("core.step_ms", samples.step_ms, "ms");
  timing("core.self_ms", samples.self_ms, "ms");
  timing("data.wait_ms", samples.wait_data_ms, "ms");
  timing("data.stage_ms", samples.stage_ms, "ms");
  timing("dnn.fwd_ms", samples.fwd_ms, "ms");
  report.add("dnn.fwd_gflops", 1e-9 * static_cast<double>(flops.fwd) / (1e-3 * fwd),
             "GF/s", samples.fwd_ms.size());
  timing("dnn.bwd_ms", samples.bwd_ms, "ms");
  report.add("dnn.bwd_gflops",
             1e-9 * static_cast<double>(flops.bwd_data + flops.bwd_weights) /
                 (1e-3 * bwd),
             "GF/s", samples.bwd_ms.size());
  report.add("dnn.pred_ratio", 1e-3 * (fwd + bwd) / predicted, "ratio", n_steps,
             "measured fwd+bwd / CostModel prediction");
  timing("dnn.infer_fwd_ms", infer_ms, "ms");
  report.add("dnn.ctx_mb", 1e-6 * static_cast<double>(last.ctx_bytes), "MB", 1,
             "training context, rank 0");
  timing("optim.step_ms", samples.optim_ms, "ms");
  timing("comm.post_us", samples.post_us, "us");
  timing("comm.wait_ms", samples.comm_wait_ms, "ms");
  report.add("comm.hidden_frac", median(samples.hidden_frac), "ratio",
             samples.hidden_frac.size(), "per bucket");
  report.add("comm.buckets_per_step", mean(samples.buckets), "count", n_steps);
  report.add("comm.mb_per_step", mean(samples.mb), "MB", n_steps);
  timing("comm.skew_ms", samples.skew_ms, "ms");
  report.add("comm.broadcast_ms", median(samples.broadcast_ms), "ms",
             samples.broadcast_ms.size());
  report.add("bench.trace_overhead", untraced_sps / traced_sps, "ratio", 2,
             "untraced / traced samples_per_s");

  std::vector<const SpanLane*> lanes;
  for (const ReplayRun& run : runs) {
    for (const SpanLane& lane : run.lanes) lanes.push_back(&lane);
  }
  if (!write_run_trace(options, lanes)) {
    report.fail(1, "cannot write the span trace");
  }
  const double comm_optim = median(samples.comm_wait_ms) + median(samples.optim_ms);
  std::printf("shares of core.step_ms (p50 %.3f ms): dnn.fwd %.1f%%, dnn.bwd "
              "%.1f%%, comm.wait+optim.step %.1f%%\n",
              median(samples.step_ms), 100.0 * fwd / median(samples.step_ms),
              100.0 * bwd / median(samples.step_ms),
              100.0 * comm_optim / median(samples.step_ms));
}

}  // namespace

std::string workload_measures(const std::string& workload) {
  if (workload == "serve-16") return "compute";
  return spec_for(workload).shards ? "compute+io" : "compute";
}

void run_train_workload(const RunOptions& options, Report& report) {
  const TrainSpec spec = spec_for(options.workload);
  const TrainInputs inputs(spec, options);
  if (const std::string why = inputs.check_shards(); !why.empty()) {
    report.attempt(1);
    report.fail(1, why);
    return;
  }
  if (options.traced) {
    train_traced(spec, options, inputs, report);
  } else {
    train_end_to_end(spec, options, inputs, report);
  }
}

}  // namespace cfbench
