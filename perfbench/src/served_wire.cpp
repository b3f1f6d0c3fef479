// served-wire: a closed loop of blocking `net::Client` connections, one per
// core, talking to one in-process `net::Server` whose engine has half as
// many workers. Chosen because it is the only workload that exercises `io`
// parsing, `serve` admission and plan cache, and the `net` codec.
//
// The job stream is a pure function of (seed, job index):
//   - three tenants;
//   - hot repeat circuits (plan-cache hits) and one-off circuits (misses);
//   - mostly ~1 ms jobs plus a few 20-30 times larger, so with fewer
//     engine workers than callers the tail shows head-of-line blocking.
// The proportions are assumptions, not a recorded trace (README, "Served-wire
// traffic"); the traced run reports what follows from them: the single-job
// times on an idle engine and the plan-cache hit rate.
//
// The traced run also replays the traced pass's job stream on an in-process
// `serve::Engine` (the serve layer without the wire) and parses every job
// text and builds the plan of every miss from outside (the io and plan
// layers the server runs internally).
//
// Read-back: before the loop, the sampled jobs are run locally
// (`Pipeline::run`) and their batches collected into one dataset file, as
// a client would collect them. The loop is cut into evenly spaced slices,
// and between them, with no job in flight, the main thread reads that file
// back (`table_of_file`, `compare`), so the read-back rate samples the host
// across the run without competing with the loop for cores.
//
// Checks: every job returns kDone (a failure surfaces as a RemoteError);
// the batch count announced by the server matches the batches received;
// every sampled job's dataset bytes equal its local run, so the sampled
// wire jobs, collected into one file, equal the file read back; and every
// read-back gives exactly the local runs' records.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ptsbe/core/backend.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/net/client.hpp"
#include "ptsbe/net/server.hpp"
#include "ptsbe/serve/engine.hpp"
#include "ptsbe/stats/compare.hpp"
#include "ptsbe/stats/shot_table.hpp"

namespace perfbench {
namespace {

using namespace ptsbe;

struct Sizes {
  unsigned qubits;
  unsigned depth;
  std::size_t nsamples;     ///< PTS draws of an ordinary job.
  std::uint64_t nshots;
  std::size_t big_factor;   ///< A large job draws this many times more.
  /// Jobs [0, sampled_jobs) are checked against a local run and read back.
  /// Whole blocks of kBlock, so every seed checks and reads back the same
  /// mix: the file would otherwise hold from one to a dozen large jobs,
  /// and its read-back rate would vary with the seed.
  std::uint64_t sampled_jobs;
};

Sizes sizes_for(const Config& config) {
  if (config.small) return {6, 4, 8, 32, 4, 40};
  // An ordinary job takes about 1 ms on an idle engine, a large one 20-30
  // ms (serve.idle_job_ms, serve.idle_big_job_ms).
  return {10, 8, 4, 128, 60, 240};
}

constexpr double kNoise = 0.01;
/// As in bench_serve_throughput's tenant population: a handful of distinct
/// circuits submitted over and over.
constexpr std::uint64_t kHotCircuits = 4;
constexpr std::uint64_t kTenants = 3;
constexpr std::uint64_t kBlock = 40;       ///< One job in 40 is large.
constexpr std::uint64_t kOneOffEvery = 5;  ///< One job in 5 is a one-off.
/// Read-backs between two slices of the loop. One takes a few tens of
/// milliseconds.
constexpr int kReadbacksPerTick = 2;

/// Deterministic job stream.
class JobStream {
 public:
  JobStream(const Config& config, const Sizes& sizes)
      : seed_(config.seed), sizes_(sizes) {
    // The hot circuits are fixed: the large jobs, which hold most of the
    // records read back, run them, and a seed-drawn circuit would move the
    // read-back cost with the seed.
    for (std::uint64_t h = 0; h < kHotCircuits; ++h)
      hot_.push_back(brickwork_ptq(sizes.qubits, sizes.depth, kNoise, 100 + h,
                                   200 + h));
  }

  enum class Kind { kHot, kOneOff, kBig };

  /// Every block of kBlock consecutive jobs holds exactly one large job and
  /// kBlock / kOneOffEvery one-offs, at seed-rotated positions, so the mix
  /// of a run does not depend on how many jobs it completes.
  [[nodiscard]] Kind kind(std::uint64_t index) const {
    const std::uint64_t block = index / kBlock;
    const std::uint64_t r =
        (index + mix_seed(seed_, block + (1ULL << 40))) % kBlock;
    if (r == 0) return Kind::kBig;
    if (r % kOneOffEvery == 1) return Kind::kOneOff;
    return Kind::kHot;
  }

  /// Hot circuit used by job `index` (meaningful for kHot and kBig).
  [[nodiscard]] std::uint64_t hot_index(std::uint64_t index) const {
    return mix_seed(seed_, index + (2ULL << 40)) % kHotCircuits;
  }

  [[nodiscard]] serve::JobRequest request(std::uint64_t index) const {
    const Kind k = kind(index);
    serve::JobRequest req;
    req.circuit_text =
        k == Kind::kOneOff
            ? brickwork_ptq(sizes_.qubits, sizes_.depth, kNoise,
                            mix_seed(seed_, index + (3ULL << 40)),
                            mix_seed(seed_, index + (4ULL << 40)))
            : hot_[hot_index(index)];
    req.tenant = "tenant-" + std::to_string(
                                 mix_seed(seed_, index + (5ULL << 40)) %
                                 kTenants);
    req.strategy_config.nsamples =
        sizes_.nsamples * (k == Kind::kBig ? sizes_.big_factor : 1);
    req.strategy_config.nshots = sizes_.nshots;
    req.backend = "statevector";
    req.backend_config.fuse_gates = true;
    req.seed = mix_seed(seed_, index + (6ULL << 40));
    return req;
  }

 private:
  std::uint64_t seed_;
  Sizes sizes_;
  std::vector<std::string> hot_;
};

struct Fleet {
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
};

serve::EngineConfig engine_config(const Config& config) {
  serve::EngineConfig engine;
  engine.workers = std::max<std::size_t>(1, config.nproc / 2);
  engine.queue_capacity = 256;
  engine.plan_cache_capacity = 32;
  return engine;
}

/// Start the server and connect and ping every client.
Fleet start_fleet(const Config& config, Tracer& tracer) {
  Scope lane(tracer, "bench.setup");
  Fleet fleet;
  {
    Scope s(tracer, "net.server_start");
    net::ServerConfig server;
    server.engine = engine_config(config);
    fleet.server = std::make_unique<net::Server>(server);
  }
  Scope s(tracer, "net.connect");
  for (std::size_t c = 0; c < config.nproc; ++c) {
    net::ClientConfig client;
    client.port = fleet.server->port();
    fleet.clients.push_back(std::make_unique<net::Client>(client));
    fleet.clients.back()->ping();
  }
  return fleet;
}

struct Sampled {
  std::uint64_t index = 0;
  RunResult run;
};

struct WirePass {
  Pass pass;
  std::uint64_t jobs = 0;  ///< Job indices [0, jobs) were issued.
  std::vector<Sampled> sampled;
};

/// The closed loop, cut into kSetupRepeats slices of equal length. In a
/// slice every client submits job after job until the slice's time is up,
/// then finishes the job in flight; the last slice also runs until the
/// sampled jobs have been issued. Between slices the loop is quiet and the
/// main thread calls `tick` with the pass, so the ticks' work competes with
/// no job for the cores. The loop's time is the slices' time, and the peak
/// resident set is read per slice.
WirePass wire_loop(const Config& config, const Sizes& sizes,
                   const JobStream& stream, Fleet& fleet, Tracer& tracer,
                   Outcome& out, const std::function<void(Pass&)>& tick) {
  WirePass result;
  std::atomic<std::uint64_t> next{0};
  std::mutex mutex;
  std::uint64_t batches = 0, mismatched = 0, failed = 0;
  std::vector<std::string> errors;
  const auto client_loop = [&](net::Client& c, std::int64_t end_ns,
                               bool last) {
    Scope lane(tracer, "bench.client", nullptr, true);
    std::vector<double> latencies;
    std::uint64_t my_batches = 0, my_shots = 0, my_mismatched = 0,
                  my_failed = 0;
    std::vector<Sampled> my_sampled;
    std::vector<std::string> my_errors;
    while (now_ns() < end_ns || (last && next.load() < sizes.sampled_jobs)) {
      const std::uint64_t index = next.fetch_add(1);
      try {
        const serve::JobRequest req = stream.request(index);
        const std::int64_t t0 = now_ns();
        net::RemoteRun remote;
        {
          Scope s(tracer, "net.submit");
          remote = c.submit(req);
        }
        latencies.push_back(seconds_since(t0));
        my_batches += remote.num_batches;
        if (remote.num_batches != remote.run.result.batches.size())
          ++my_mismatched;
        my_shots += remote.run.result.total_shots();
        if (index < sizes.sampled_jobs)
          my_sampled.push_back({index, std::move(remote.run)});
      } catch (const std::exception& e) {
        ++my_failed;
        my_errors.push_back(e.what());
      }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    result.pass.job_s.insert(result.pass.job_s.end(), latencies.begin(),
                             latencies.end());
    batches += my_batches;
    result.pass.shots += my_shots;
    mismatched += my_mismatched;
    failed += my_failed;
    for (Sampled& s : my_sampled) result.sampled.push_back(std::move(s));
    errors.insert(errors.end(), my_errors.begin(), my_errors.end());
  };
  const auto slice_ns = static_cast<std::int64_t>(config.seconds * 1e9 /
                                                  kSetupRepeats);
  for (std::size_t slice = 0; slice < kSetupRepeats; ++slice) {
    if (slice > 0) tick(result.pass);
    reset_peak_rss();
    const std::int64_t start = now_ns();
    std::vector<std::thread> threads;
    for (auto& client : fleet.clients)
      threads.emplace_back(client_loop, std::ref(*client), start + slice_ns,
                           slice + 1 == kSetupRepeats);
    for (std::thread& t : threads) t.join();
    result.pass.timed_s += seconds_since(start);
    result.pass.peak_rss_mib.push_back(peak_rss_mib());
  }
  result.jobs = next.load();
  result.pass.specs = batches;
  result.pass.windows.push_back(
      {result.pass.timed_s, static_cast<double>(batches),
       static_cast<double>(result.pass.shots),
       static_cast<double>(result.pass.job_s.size())});

  for (std::uint64_t j = 0; j < result.jobs; ++j) out.jobs.add(j >= failed);
  out.batches.attempted += batches;
  out.batches.failed += mismatched;
  for (const std::string& e : errors) out.notes.push_back("job failed: " + e);
  result.pass.counters["net.batches_per_job"] =
      static_cast<double>(batches) /
      static_cast<double>(result.pass.job_s.size());
  return result;
}

/// Local runs of the sampled jobs: the bytes each wire job must equal, and
/// the file read back, which holds their batches as a client collects them.
struct Reference {
  std::vector<std::string> job_bytes;  ///< Dataset export of each job.
  std::string path;                    ///< The jobs' batches in one file.
  stats::ShotTable table;              ///< The records of the local runs.
};

Reference local_reference(const Config& config, const Sizes& sizes,
                          const JobStream& stream) {
  Reference ref;
  ref.path = work_path(config, "wire-local-collected.ptsb");
  const std::string job_path = work_path(config, "wire-local.ptsb");
  dataset::StreamWriter collected(ref.path);
  for (std::uint64_t index = 0; index < sizes.sampled_jobs; ++index) {
    const serve::JobRequest req = stream.request(index);
    const RunResult local = Pipeline(io::parse_circuit(req.circuit_text))
                                .strategy(req.strategy, req.strategy_config)
                                .backend(req.backend, req.backend_config)
                                .seed(req.seed)
                                .run();
    local.to_binary(job_path);
    ref.job_bytes.push_back(slurp(job_path));
    for (const be::TrajectoryBatch& batch : local.result.batches)
      collected.append(batch);
    ref.table.merge(stats::table_of_result(local.result));
  }
  collected.close();
  std::remove(job_path.c_str());
  return ref;
}

/// Reads the reference file back kReadbacksPerTick times, each timed from
/// `table_of_file` through `compare` against the local runs' records.
void read_back(const Reference& ref, Pass& pass, Outcome& out) {
  for (int rep = 0; rep < kReadbacksPerTick; ++rep) {
    const std::int64_t start = now_ns();
    const stats::ShotTable file_table = stats::table_of_file(ref.path);
    const stats::Comparison cmp = stats::compare(file_table, ref.table);
    pass.readbacks.push_back({file_table.total(), seconds_since(start)});
    out.check(cmp.exact_match() && file_table == ref.table,
              "served-wire: the collected jobs read back to different records");
  }
}

/// Sampled jobs against their local runs: byte identity of each job's
/// dataset export, and of the sampled jobs' batches collected into one
/// file against the file read back during the loop.
void check_sampled(const Config& config, const Sizes& sizes,
                   const Reference& ref, WirePass& wire, Outcome& out) {
  const std::string remote_path = work_path(config, "wire-remote.ptsb");
  const std::string collected_path = work_path(config, "wire-collected.ptsb");
  std::sort(wire.sampled.begin(), wire.sampled.end(),
            [](const Sampled& a, const Sampled& b) {
              return a.index < b.index;
            });
  out.check(wire.sampled.size() == sizes.sampled_jobs,
            "served-wire: a sampled job did not return");
  dataset::StreamWriter collected(collected_path);
  for (const Sampled& s : wire.sampled) {
    s.run.to_binary(remote_path);
    out.check(slurp(remote_path) == ref.job_bytes[s.index],
              "served-wire: job " + std::to_string(s.index) +
                  " differs from a local Pipeline::run");
    for (const be::TrajectoryBatch& batch : s.run.result.batches)
      collected.append(batch);
  }
  collected.close();
  out.check(slurp(collected_path) == slurp(ref.path),
            "served-wire: the collected jobs differ from the file read back");
  for (const std::string& p : {remote_path, collected_path})
    std::remove(p.c_str());
}

void stop_fleet(Fleet& fleet, Outcome& out) {
  for (auto& client : fleet.clients) client->close();
  const serve::EngineStats stats = fleet.server->stats();
  out.check(stats.failed == 0 && stats.rejected == 0 && stats.cancelled == 0,
            "served-wire: the server's engine failed or refused jobs");
  fleet.server->stop();
}

/// The traced pass's job stream on an in-process Engine, closed loop with
/// the same callers and workers: the serve layer without the wire.
void replay_on_engine(const Config& config, const JobStream& stream,
                      std::uint64_t jobs, Tracer& tracer, Outcome& out) {
  serve::Engine engine(engine_config(config));
  std::atomic<std::uint64_t> next{0};
  std::mutex mutex;
  std::vector<double> latencies;
  std::uint64_t failed = 0;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < config.nproc; ++c) {
    threads.emplace_back([&] {
      Scope lane(tracer, "bench.client", nullptr, true);
      std::vector<double> mine;
      std::uint64_t my_failed = 0;
      for (std::uint64_t index = next.fetch_add(1); index < jobs;
           index = next.fetch_add(1)) {
        try {
          serve::JobRequest req = stream.request(index);
          const std::int64_t t0 = now_ns();
          std::optional<serve::JobHandle> handle;
          {
            Scope s(tracer, "serve.submit");
            handle.emplace(engine.submit(std::move(req)));
          }
          Scope s(tracer, "serve.wait");
          (void)handle->wait();
          mine.push_back(seconds_since(t0));
        } catch (const std::exception&) {
          ++my_failed;
        }
      }
      const std::lock_guard<std::mutex> lock(mutex);
      latencies.insert(latencies.end(), mine.begin(), mine.end());
      failed += my_failed;
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::uint64_t j = 0; j < jobs; ++j) out.jobs.add(j >= failed);

  const serve::EngineStats stats = engine.stats();
  std::size_t high_water = 0;
  for (const auto& [tenant, t] : stats.tenants)
    high_water = std::max(high_water, t.queue_high_water);
  out.layers["serve.job_latency_ms"] = median(latencies) * 1e3;
  out.layers["serve.plan_cache_hit_rate"] = stats.plan_cache_hit_rate();
  out.layers["serve.queue_high_water"] = static_cast<double>(high_water);
  engine.shutdown();
}

/// Single-job times on an idle engine, one job in flight and its plan
/// cached: the median submit→wait of 15 runs of an ordinary hot job and
/// of 5 runs of a large one. They show what the closed loop's latencies
/// are made of, apart from queueing and the wire.
void idle_job_times(const Config& config, const JobStream& stream,
                    Outcome& out) {
  serve::Engine engine(engine_config(config));
  const auto median_ms = [&](JobStream::Kind kind, int runs) {
    std::uint64_t index = 0;
    while (stream.kind(index) != kind) ++index;
    const serve::JobRequest req = stream.request(index);
    std::vector<double> times;
    for (int run = 0; run <= runs; ++run) {  // Run 0 fills the plan cache.
      serve::JobRequest copy = req;
      const std::int64_t t0 = now_ns();
      (void)engine.submit(std::move(copy)).wait();
      if (run > 0) times.push_back(seconds_since(t0));
    }
    return median(std::move(times)) * 1e3;
  };
  out.layers["serve.idle_job_ms"] = median_ms(JobStream::Kind::kHot, 15);
  out.layers["serve.idle_big_job_ms"] = median_ms(JobStream::Kind::kBig, 5);
  engine.shutdown();
}

/// The io and plan layers the server runs per job, called from outside:
/// parse every job text and build the plan of every plan-cache miss (each
/// one-off and the first use of each hot circuit).
void parse_and_plan(const JobStream& stream, std::uint64_t jobs,
                    Tracer& tracer, Outcome& out) {
  Scope lane(tracer, "bench.phase", nullptr, true);
  std::vector<bool> hot_seen(kHotCircuits, false);
  std::size_t gates = 0, unfused = 0;
  for (std::uint64_t index = 0; index < jobs; ++index) {
    const serve::JobRequest req = stream.request(index);
    const NoisyCircuit noisy = [&] {
      Scope s(tracer, "io.parse");
      return io::parse_circuit(req.circuit_text);
    }();
    if (stream.kind(index) != JobStream::Kind::kOneOff) {
      const std::uint64_t h = stream.hot_index(index);
      if (hot_seen[h]) continue;
      hot_seen[h] = true;
    }
    Scope s(tracer, "plan.build");
    const ExecPlan plan =
        make_backend(req.backend, req.backend_config)->make_plan(noisy);
    gates += plan.gate_count;
    unfused += plan.unfused_gate_count;
  }
  out.layers["plan.fusion_ratio"] =
      static_cast<double>(gates) / static_cast<double>(unfused);
}

}  // namespace

Outcome run_served_wire(const Config& config) {
  Outcome out;
  const Sizes sizes = sizes_for(config);
  const JobStream stream(config, sizes);

  // Set-up: start the server and connect every client. It is repeated
  // between the slices of the untraced pass, so the median samples the host
  // across the run.
  Tracer setup_tracer(config.trace);
  const auto timed_set_up = [&] {
    const std::int64_t start = now_ns();
    Fleet fleet = start_fleet(config, setup_tracer);
    out.setup_s.push_back(seconds_since(start));
    return fleet;
  };
  const auto repeat_set_up = [&] {
    Fleet extra = timed_set_up();
    stop_fleet(extra, out);
  };
  Fleet fleet = timed_set_up();
  const Reference ref = local_reference(config, sizes, stream);
  const auto tick_read_back = [&](Pass& pass) { read_back(ref, pass, out); };

  Tracer off(false);
  WirePass untraced = wire_loop(config, sizes, stream, fleet, off, out,
                                [&](Pass& pass) {
                                  repeat_set_up();
                                  tick_read_back(pass);
                                });
  while (out.setup_s.size() < kSetupRepeats) repeat_set_up();
  check_sampled(config, sizes, ref, untraced, out);
  stop_fleet(fleet, out);
  out.untraced = untraced.pass;
  if (!config.trace) return out;

  Tracer tracer(true);
  fleet = start_fleet(config, off);
  WirePass traced =
      wire_loop(config, sizes, stream, fleet, tracer, out, tick_read_back);
  check_sampled(config, sizes, ref, traced, out);
  stop_fleet(fleet, out);
  replay_on_engine(config, stream, traced.jobs, tracer, out);
  parse_and_plan(stream, traced.jobs, tracer, out);
  idle_job_times(config, stream, out);
  out.traced = traced.pass;
  out.spans = tracer.spans();

  auto& layer = out.layers;
  for (const auto& [name, value] : traced.pass.counters) layer[name] = value;
  const double net_ms = span_stats(out.spans, "net.submit").median_s * 1e3;
  layer["net.job_latency_ms"] = net_ms;
  layer["net.overhead_ms"] = net_ms - layer["serve.job_latency_ms"];
  layer["serve.submit_ms"] =
      span_stats(out.spans, "serve.submit").median_s * 1e3;
  layer["io.parse_ms"] = span_stats(out.spans, "io.parse").median_s * 1e3;
  layer["plan.build_s"] = span_stats(out.spans, "plan.build").median_s;
  return out;
}

}  // namespace perfbench
