// serve-16: cf::serve over cosmoflow-16, 3 workers x 1 thread, every
// other ServerConfig field at its default.
//
// Open loop: the harness's main thread sends Poisson arrivals at fixed
// absolute rates (light 2000 req/s, heavy 8000 req/s, alternating in
// rounds), and twice steps up a geometric rate ladder to the highest
// rate that meets the objective. Latency runs from a request's
// scheduled send time until the harness sees its result, so a generator
// stall is charged to the requests behind it. Results are seen by a
// pool of waiter threads, one blocked per outstanding request. A closed
// loop of four clients (each sends, waits, sends again) gives the
// throughput a waiting caller gets.
// Every output is compared bitwise with a serial forward of the same
// input on the harness's own inference context (DESIGN.md §2.4).
// Nothing is read from the server's metrics registry.
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/topology.hpp"
#include "inputs.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace cfbench {

namespace {

constexpr const char* kPreset = "cosmoflow-16";
constexpr std::size_t kWorkers = kInferenceStreams;
constexpr double kLightRate = 2000.0;
constexpr double kHeavyRate = 8000.0;
/// The rate ladder: 2000 * 2^(k/16) req/s; the heavy rate is rung 32.
constexpr Ladder kLadder{kLightRate, 16, 0, 80};
constexpr int kHeavyRung = 32;
constexpr std::size_t kClosedLoopClients = 4;
/// Distinct request inputs: the 8 sub-volumes of each of 32 boxes.
constexpr std::size_t kInputSims = 32;
/// Requests sent (closed loop) to warm a fresh server before timing.
constexpr std::size_t kWarmupRequests = 48;
/// More waiters than the server can hold in flight (queue capacity 64
/// plus batches being formed, queued and run), so every outstanding
/// request has a thread blocked on its result.
constexpr std::size_t kWaiters = 160;
/// The served weights are fixed; the workload seed drives the inputs,
/// the arrival times and which input each request carries.
constexpr std::uint64_t kModelSeed = 0;

constexpr std::uint64_t kSeedData = 1;
constexpr std::uint64_t kSeedArrivals = 4;
constexpr std::uint64_t kSeedChoice = 5;

using cf::serve::InferenceResult;
using cf::serve::SubmitStatus;

struct ServeInputs {
  std::vector<cf::tensor::Tensor> volumes;
  std::vector<std::vector<float>> expected;  // serial reference outputs
};

ServeInputs make_inputs(std::uint64_t seed) {
  const cf::core::TopologyConfig topology = cf::core::preset_topology(kPreset);
  ServeInputs inputs;
  for (cf::data::Sample& s :
       simulate_samples(topology.input_dhw, kInputSims, sub_seed(seed, kSeedData))) {
    inputs.volumes.push_back(std::move(s.volume));
  }
  cf::dnn::Network net = cf::core::build_network(topology, kModelSeed);
  cf::dnn::ExecContext ctx = net.make_context(cf::dnn::ExecMode::kInference);
  cf::runtime::ThreadPool serial(1);
  for (const cf::tensor::Tensor& v : inputs.volumes) {
    inputs.expected.push_back(ctx.forward(v, serial).to_vector());
  }
  return inputs;
}

/// Counts of one phase's requests by how they ended.
struct Tally {
  std::int64_t sent = 0, ok = 0, shed = 0, threw = 0, wrong = 0;
  std::int64_t failed() const { return threw + wrong; }
  void add(const Tally& t) {
    sent += t.sent;
    ok += t.ok;
    shed += t.shed;
    threw += t.threw;
    wrong += t.wrong;
  }
};

void charge(Report& report, const Tally& t, bool shed_is_failure,
            const std::string& phase) {
  report.attempt(t.sent);
  const std::int64_t bad = t.failed() + (shed_is_failure ? t.shed : 0);
  if (bad > 0) {
    report.fail(bad, phase + ": " + std::to_string(t.shed) + " shed, " +
                         std::to_string(t.threw) + " threw, " +
                         std::to_string(t.wrong) + " wrong bits");
  }
}

/// A fresh deployment: network + Server, warmed with a few requests.
/// Its construction time is one set-up sample.
struct Deployment {
  std::unique_ptr<cf::serve::Server> server;
  double setup_s = 0.0;
  Tally warmup;
};

Deployment deploy(const ServeInputs& inputs) {
  Deployment d;
  const std::int64_t start = now_ns();
  auto net = std::make_shared<cf::dnn::Network>(
      cf::core::build_network(cf::core::preset_topology(kPreset), kModelSeed));
  cf::serve::ServerConfig config;  // only the stream layout is set
  config.workers = kWorkers;
  config.threads_per_worker = 1;
  d.server = std::make_unique<cf::serve::Server>(std::move(net), config);
  std::vector<std::future<InferenceResult>> pending;
  std::vector<std::size_t> which;
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    const std::size_t k = i % inputs.volumes.size();
    std::future<InferenceResult> f;
    ++d.warmup.sent;
    if (d.server->submit(inputs.volumes[k].clone(), &f) ==
        SubmitStatus::kAccepted) {
      pending.push_back(std::move(f));
      which.push_back(k);
    } else {
      ++d.warmup.shed;
    }
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    try {
      if (same_bits(pending[i].get().output, inputs.expected[which[i]])) {
        ++d.warmup.ok;
      } else {
        ++d.warmup.wrong;
      }
    } catch (const std::exception&) {
      ++d.warmup.threw;
    }
  }
  d.setup_s = 1e-9 * static_cast<double>(now_ns() - start);
  return d;
}

/// One open-loop request, stamped on the harness clock.
struct Outcome {
  enum class End : std::uint8_t { kPending, kOk, kShed, kThrew, kWrong };
  std::int64_t due = 0;        // scheduled send time
  std::int64_t sent = 0;       // submit() called
  std::int64_t submitted = 0;  // submit() returned
  std::int64_t seen = 0;       // result seen by a waiter
  std::uint32_t input = 0;
  std::uint32_t queue_depth = 0;  // Server::queue_depth() at send (traced)
  std::int64_t outstanding = 0;   // sent but not yet seen, at send
  End end = End::kPending;
};

/// Threads that each block on one outstanding request's future and
/// stamp the moment its result is seen. They live for the whole run so
/// that per-thread allocator state does not pile up across phases and
/// show in the process's peak RSS.
class Waiters {
 public:
  explicit Waiters(const ServeInputs& inputs) : inputs_(inputs) {
    threads_.reserve(kWaiters);
    for (std::size_t i = 0; i < kWaiters; ++i) {
      threads_.emplace_back([this] { loop(); });
    }
  }
  ~Waiters() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Waiters(const Waiters&) = delete;
  Waiters& operator=(const Waiters&) = delete;

  /// Outcome `index` of `outcomes` is waiting on `future`.
  void push(std::vector<Outcome>& outcomes, std::size_t index,
            std::future<InferenceResult> future) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back({&outcomes[index], std::move(future)});
      ++unseen_;
    }
    cv_.notify_one();
  }

  /// Blocks until every pushed request has been seen.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [&] { return unseen_ == 0; });
  }

  /// Requests pushed and not yet seen.
  std::int64_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    Outcome* outcome = nullptr;
    std::future<InferenceResult> future;
  };

  void loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !jobs_.empty() || stop_; });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job.future.wait();
      Outcome& o = *job.outcome;
      o.seen = now_ns();
      try {
        o.end = same_bits(job.future.get().output, inputs_.expected[o.input])
                    ? Outcome::End::kOk
                    : Outcome::End::kWrong;
      } catch (const std::exception&) {
        o.end = Outcome::End::kThrew;
      }
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (--unseen_ == 0) drained_.notify_all();
      }
    }
  }

  const ServeInputs& inputs_;
  std::atomic<std::int64_t> outstanding_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable drained_;
  std::deque<Job> jobs_;
  std::int64_t unseen_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

struct Phase {
  double seconds = 0.0;  // the send window
  double setup_s = 0.0;
  Tally tally;
  std::vector<Outcome> outcomes;
  std::vector<double> latency_ms;  // due -> seen; +inf for a shed request
  bool backlog_growing = false;
};

/// Poisson arrivals at `rate` for `seconds` against a fresh deployment.
Phase open_loop(const ServeInputs& inputs, Waiters& waiters, double rate,
                double seconds, std::uint64_t seed, std::uint64_t stream,
                bool traced, Report& report) {
  Phase phase;
  phase.seconds = seconds;
  cf::runtime::Rng arrivals(sub_seed(seed, kSeedArrivals), stream);
  cf::runtime::Rng choice(sub_seed(seed, kSeedChoice), stream);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - arrivals.uniform_double()) / rate;
    if (t >= seconds) break;
    Outcome o;
    o.due = static_cast<std::int64_t>(t * 1e9);
    o.input = static_cast<std::uint32_t>(choice.uniform_index(inputs.volumes.size()));
    phase.outcomes.push_back(o);
  }

  Deployment d = deploy(inputs);
  charge(report, d.warmup, /*shed_is_failure=*/true, "warm-up");
  phase.setup_s = d.setup_s;
  const std::int64_t base = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
    Outcome& o = phase.outcomes[i];
    o.due += base;
    cf::tensor::Tensor input = inputs.volumes[o.input].clone();
    sleep_until_ns(o.due);
    o.sent = now_ns();
    if (traced) {
      o.queue_depth = static_cast<std::uint32_t>(d.server->queue_depth());
    }
    o.outstanding = waiters.outstanding();
    std::future<InferenceResult> future;
    SubmitStatus status = SubmitStatus::kShutdown;
    try {
      status = d.server->submit(std::move(input), &future);
    } catch (const std::exception&) {
      o.end = Outcome::End::kThrew;
    }
    o.submitted = now_ns();
    if (status == SubmitStatus::kAccepted) {
      waiters.push(phase.outcomes, i, std::move(future));
    } else if (o.end == Outcome::End::kPending) {
      o.end = Outcome::End::kShed;
    }
  }
  waiters.drain();
  d.server->shutdown();

  for (const Outcome& o : phase.outcomes) {
    ++phase.tally.sent;
    switch (o.end) {
      case Outcome::End::kOk:
        ++phase.tally.ok;
        phase.latency_ms.push_back(1e-6 * static_cast<double>(o.seen - o.due));
        break;
      case Outcome::End::kShed:
        // Refused by admission control: it misses any latency limit.
        ++phase.tally.shed;
        phase.latency_ms.push_back(std::numeric_limits<double>::infinity());
        break;
      case Outcome::End::kThrew: ++phase.tally.threw; break;
      default: ++phase.tally.wrong; break;
    }
  }
  // A growing backlog: requests in flight rise from the first quarter of
  // the phase to the last by more than a quarter of the queue.
  const std::size_t n = phase.outcomes.size(), q = n / 4;
  if (q > 0) {
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      first += static_cast<double>(phase.outcomes[i].outstanding);
      last += static_cast<double>(phase.outcomes[n - q + i].outstanding);
    }
    phase.backlog_growing = (last - first) / static_cast<double>(q) > 16.0;
  }
  return phase;
}

/// Closed loop: each client sends, waits for the result, sends again.
/// Returns completed requests per second; `completed` gets their count.
double closed_loop(const ServeInputs& inputs, double seconds, std::uint64_t seed,
                   std::vector<double>& setups, std::int64_t& completed,
                   Report& report) {
  Deployment d = deploy(inputs);
  charge(report, d.warmup, /*shed_is_failure=*/true, "warm-up");
  setups.push_back(d.setup_s);
  std::vector<Tally> tallies(kClosedLoopClients);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClosedLoopClients; ++c) {
    clients.emplace_back([&, c] {
      cf::runtime::Rng choice(sub_seed(seed, kSeedChoice), 1000 + c);
      Tally& t = tallies[c];
      while (now_ns() < deadline) {
        const std::size_t k = choice.uniform_index(inputs.volumes.size());
        std::future<InferenceResult> f;
        ++t.sent;
        try {
          if (d.server->submit(inputs.volumes[k].clone(), &f) !=
              SubmitStatus::kAccepted) {
            ++t.shed;
            continue;
          }
          if (same_bits(f.get().output, inputs.expected[k])) {
            ++t.ok;
          } else {
            ++t.wrong;
          }
        } catch (const std::exception&) {
          ++t.threw;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = 1e-9 * static_cast<double>(now_ns() - start);
  d.server->shutdown();
  Tally total;
  for (const Tally& t : tallies) total.add(t);
  charge(report, total, /*shed_is_failure=*/true, "closed loop");
  completed = total.ok;
  return static_cast<double>(total.ok) / elapsed;
}

// Shares of --seconds per phase; the ladder's rungs take the rest.
constexpr double kClosedShare = 0.08;
constexpr double kLightShare = 0.21;
constexpr double kHeavyShare = 0.21;
constexpr double kRungShare = 0.02;
/// The light and heavy phases alternate in this many rounds, so that
/// both sample the machine over the whole run rather than one stretch
/// of it (this host's speed drifts over seconds).
constexpr int kRounds = 3;

/// Appends one round of a phase to the phase's total.
void merge(Phase& total, Phase&& round) {
  total.seconds += round.seconds;
  total.tally.add(round.tally);
  total.latency_ms.insert(total.latency_ms.end(), round.latency_ms.begin(),
                          round.latency_ms.end());
  total.outcomes.insert(total.outcomes.end(), round.outcomes.begin(),
                        round.outcomes.end());
}

void serve_end_to_end(const RunOptions& options, const ServeInputs& inputs,
                      Waiters& waiters, Report& report) {
  const double T = options.seconds;
  std::vector<double> setups;
  std::int64_t closed_completed = 0;
  const double closed_rps = closed_loop(inputs, kClosedShare * T, options.seed,
                                        setups, closed_completed, report);

  const Slo slo;
  const auto ladder_search = [&] {
    return search_ladder(kLadder, kHeavyRung, slo, [&](double rate) {
      Phase rung = open_loop(inputs, waiters, rate, kRungShare * T, options.seed,
                             100 + static_cast<std::uint64_t>(rate), false,
                             report);
      // Shedding above capacity is what the ladder looks for; only
      // wrong bits and throws fail the run here.
      charge(report, rung.tally, /*shed_is_failure=*/false, "ladder");
      setups.push_back(rung.setup_s);
      RungResult r;
      r.rate = rate;
      r.offered = static_cast<double>(rung.tally.sent) / rung.seconds;
      r.p99_seconds = 1e-3 * nearest_rank(rung.latency_ms, 99.0);
      r.shed = static_cast<std::size_t>(rung.tally.shed);
      r.backlog_growing = rung.backlog_growing;
      std::printf("  ladder %8.0f req/s: p99 %7.3f ms, %lld shed, backlog %s "
                  "-> %s\n",
                  rate, 1e3 * r.p99_seconds,
                  static_cast<long long>(rung.tally.shed),
                  r.backlog_growing ? "growing" : "steady",
                  slo.met(r) ? "meets" : "misses");
      return r;
    });
  };

  // Timeline: the fixed rates in kRounds rounds of light then heavy, and
  // the ladder searched twice, after the first round and after the last.
  Phase light, heavy;
  std::vector<LadderSearch> searches;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t stream = 10 * static_cast<std::uint64_t>(round);
    Phase l = open_loop(inputs, waiters, kLightRate, kLightShare * T / kRounds,
                        options.seed, 1 + stream, false, report);
    setups.push_back(l.setup_s);
    merge(light, std::move(l));
    Phase h = open_loop(inputs, waiters, kHeavyRate, kHeavyShare * T / kRounds,
                        options.seed, 2 + stream, false, report);
    setups.push_back(h.setup_s);
    merge(heavy, std::move(h));
    if (round == 0 || round == kRounds - 1) searches.push_back(ladder_search());
  }
  charge(report, light.tally, /*shed_is_failure=*/false, "light");
  charge(report, heavy.tally, /*shed_is_failure=*/false, "heavy");
  std::printf("shed by admission control: light %lld of %lld, heavy %lld of "
              "%lld\n",
              static_cast<long long>(light.tally.shed),
              static_cast<long long>(light.tally.sent),
              static_cast<long long>(heavy.tally.shed),
              static_cast<long long>(heavy.tally.sent));
  // The capacity is the mean of the two searches' results.
  double max_rps = 0.0;
  std::size_t probes = 0;
  for (const LadderSearch& search : searches) {
    if (search.best_rung < 0) {
      report.fail(1, "no ladder rate met the objective, not even 2000 req/s");
    }
    max_rps += search.best_offered / static_cast<double>(searches.size());
    probes += search.probes.size();
  }

  report.add("setup_s", median(setups), "s", setups.size(),
             "median over deployments; network+Server+warm-up");
  report.add("samples_per_s", closed_rps, "samples/s",
             static_cast<std::size_t>(closed_completed),
             "closed loop, 4 waiting clients");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  // Shed requests sit at +inf in the samples, so a percentile they
  // reach is undefined: then the fixed rate was not sustained at all.
  const auto latency = [&](const char* name, const Phase& p, double q,
                           const char* note) {
    double v = nearest_rank(p.latency_ms, q);
    if (!std::isfinite(v)) {
      report.fail(1, std::string(name) + ": too many requests shed");
      v = 0.0;
    }
    report.add(name, v, "ms", p.latency_ms.size(), note);
  };
  latency("latency_p50_ms.light", light, 50.0, "2000 req/s, from due time");
  latency("latency_p50_ms.heavy", heavy, 50.0, "8000 req/s, from due time");
  // Printed, not metrics: across seeds they spread beyond any bound the
  // benchmark could hold them to on a shared VM (METRICS.md).
  std::printf("latency p90 from due time: light %.4g ms (%zu requests), "
              "heavy %.4g ms (%zu requests)\n",
              nearest_rank(light.latency_ms, 90.0), light.latency_ms.size(),
              nearest_rank(heavy.latency_ms, 90.0), heavy.latency_ms.size());
  std::printf("max_rps_at_slo %.6g req/s: mean of 2 searches (%zu probes), "
              "offered rate at the top rung of 2000*2^(k/16) with p99 <= "
              "10 ms, none shed, no backlog\n",
              max_rps, probes);
  const auto late_us = [](const Phase& p) {
    std::vector<double> v;
    for (const Outcome& o : p.outcomes) v.push_back(1e-3 * static_cast<double>(o.sent - o.due));
    return v;
  };
  std::printf("generator lateness: light p50 %.1f us p99 %.1f us; heavy p50 "
              "%.1f us p99 %.1f us\n",
              median(late_us(light)), nearest_rank(late_us(light), 99.0),
              median(late_us(heavy)), nearest_rank(late_us(heavy), 99.0));
}

void serve_traced(const RunOptions& options, const ServeInputs& inputs,
                  Waiters& waiters, Report& report) {
  const double T = options.seconds;
  // Untraced light phase in the same process, for bench.trace_overhead.
  const Phase untraced = open_loop(inputs, waiters, kLightRate, kLightShare * T,
                                   options.seed, 1, false, report);
  charge(report, untraced.tally, /*shed_is_failure=*/false, "light (untraced)");

  SpanLane lane;
  std::vector<double> infer_ms;
  std::size_t ctx_bytes = 0;
  double traced_light_p50 = 0.0;
  const auto record = [&](const char* label, double rate, std::uint64_t stream,
                          double seconds, std::int64_t request_base) {
    const std::uint32_t phase_span = lane.begin("loadgen.phase");
    Phase p = open_loop(inputs, waiters, rate, seconds, options.seed, stream, true, report);
    charge(report, p.tally, /*shed_is_failure=*/false, label);
    std::vector<double> submit_us, in_system_ms, late_us, depth;
    for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
      const Outcome& o = p.outcomes[i];
      const std::int64_t id = request_base + static_cast<std::int64_t>(i);
      lane.add("serve.submit", o.sent, o.submitted, id);
      late_us.push_back(1e-3 * static_cast<double>(o.sent - o.due));
      submit_us.push_back(1e-3 * static_cast<double>(o.submitted - o.sent));
      depth.push_back(o.queue_depth);
      if (o.end == Outcome::End::kOk) {
        lane.add("serve.in_system", o.submitted, o.seen, id);
        in_system_ms.push_back(1e-6 * static_cast<double>(o.seen - o.submitted));
      }
    }
    lane.end(phase_span);
    const std::string s = label;
    report.add("serve.submit_us." + s, median(submit_us), "us", submit_us.size());
    report.add("serve.submit_us." + s + ".p90", nearest_rank(submit_us, 90.0), "us",
               submit_us.size());
    report.add("serve.in_system_ms." + s, median(in_system_ms), "ms",
               in_system_ms.size());
    report.add("serve.in_system_ms." + s + ".p90", nearest_rank(in_system_ms, 90.0),
               "ms", in_system_ms.size());
    report.add("serve.queue_depth_p99." + s, nearest_rank(depth, 99.0), "count",
               depth.size());
    report.add("loadgen.late_us." + s, median(late_us), "us", late_us.size());
    report.add("loadgen.late_us." + s + ".p90", nearest_rank(late_us, 90.0), "us",
               late_us.size());
    if (s == "light") traced_light_p50 = median(p.latency_ms);
    return median(in_system_ms);
  };
  const double light_in_system = record("light", kLightRate, 1, kLightShare * T, 0);
  const double heavy_in_system =
      record("heavy", kHeavyRate, 2, kHeavyShare * T, 1'000'000'000);

  {
    const cf::dnn::Network net =
        cf::core::build_network(cf::core::preset_topology(kPreset), kModelSeed);
    std::vector<const cf::tensor::Tensor*> volumes;
    for (const cf::tensor::Tensor& v : inputs.volumes) volumes.push_back(&v);
    infer_ms = concurrent_forward_ms(net, volumes, 0.1 * T, &ctx_bytes);
  }
  const double infer = median(infer_ms);
  report.add("dnn.infer_fwd_ms", infer, "ms", infer_ms.size(),
             "3 concurrent inference contexts");
  report.add("dnn.infer_fwd_ms.p90", nearest_rank(infer_ms, 90.0), "ms",
             infer_ms.size());
  report.add("dnn.ctx_mb", 1e-6 * static_cast<double>(ctx_bytes), "MB", 1,
             "one inference context");
  report.add("serve.overhead_ms.light", light_in_system - infer, "ms", 1,
             "in-system p50 - forward p50");
  report.add("serve.overhead_ms.heavy", heavy_in_system - infer, "ms", 1,
             "in-system p50 - forward p50");
  report.add("bench.trace_overhead",
             traced_light_p50 / median(untraced.latency_ms), "ratio", 2,
             "traced / untraced latency_p50_ms.light");
  std::printf("at 2000 req/s: serve.overhead_ms %.3f vs dnn.infer_fwd_ms %.3f "
              "(the server's own time %s the forward pass)\n",
              light_in_system - infer, infer,
              light_in_system - infer > infer ? "exceeds" : "does not exceed");
  if (!write_run_trace(options, {&lane})) {
    report.fail(1, "cannot write the span trace");
  }
}

}  // namespace

void run_serve_workload(const RunOptions& options, Report& report) {
  const ServeInputs inputs = make_inputs(options.seed);
  Waiters waiters(inputs);
  if (options.traced) {
    serve_traced(options, inputs, waiters, report);
  } else {
    serve_end_to_end(options, inputs, waiters, report);
  }
}

}  // namespace cfbench
