// prep-heavy: local dataset generation on the statevector backend.
//
// An 18-qubit brickwork surrogate with depolarizing gate noise runs with the
// shared-prefix schedule, gate fusion on and one worker per two cores (on a
// shared 4-core host, four busy workers read up to 30% apart from run to
// run; two leave headroom for the sink thread and neighbours). Each job
// is one dataset shard: PTS sampling (`Pipeline::sample`), then
// `be::execute_streaming` with the shard's batches streamed into a
// `dataset::StreamWriter`. Chosen because preparation (kernels, prefix
// forks, executor) is nearly all of the work while sampling and the sink
// are small — the asymmetry the paper's speed-up rests on.
//
// Checks, between jobs and outside the timed sections: every batch arrives
// once; the shard file reads back (`stats::table_of_file`) to exactly the
// records the sink saw (`stats::compare` distances all 0); and on every
// fourth job the first specs are re-run independently on one thread and
// must be byte-identical to the shard's batches.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "local.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/stats/compare.hpp"
#include "ptsbe/stats/dataset_reader.hpp"
#include "ptsbe/stats/shot_table.hpp"

namespace perfbench {
namespace {

using namespace ptsbe;

struct Sizes {
  unsigned qubits;
  unsigned depth;
  std::size_t nsamples;  ///< PTS draws per job.
  std::uint64_t nshots;  ///< Shots per draw.
  std::size_t min_jobs;
};

Sizes sizes_for(const Config& config) {
  if (config.small) return {8, 6, 12, 64, 2};
  return {18, 16, 32, 1024, 12};
}

constexpr double kGateNoise = 0.002;
constexpr std::uint64_t kLayoutSeed = 0xB21C3ULL;
constexpr std::uint64_t kAngleSeed = 0xA4C1EULL;
constexpr std::size_t kRerunEvery = 4;
constexpr std::size_t kRerunSpecs = 2;

/// Everything set-up produces: the parsed program and its fused plan.
struct Prepared {
  NoisyCircuit noisy;
  std::shared_ptr<const ExecPlan> plan;
};

Prepared set_up(const std::string& text, const BackendConfig& backend,
                Tracer& tracer) {
  Scope lane(tracer, "bench.setup");
  NoisyCircuit noisy = [&] {
    Scope s(tracer, "io.parse");
    return io::parse_circuit(text);
  }();
  Scope s(tracer, "plan.build");
  auto plan = std::make_shared<const ExecPlan>(
      make_backend("statevector", backend)->make_plan(noisy));
  return {std::move(noisy), std::move(plan)};
}

/// Batches with spec_index < `count` from a shard file, in spec order.
std::vector<be::TrajectoryBatch> leading_batches(const std::string& path,
                                                 std::size_t count) {
  std::vector<be::TrajectoryBatch> out;
  dataset::Reader reader(path);
  be::TrajectoryBatch batch;
  while (reader.next(batch))
    if (batch.spec_index < count) out.push_back(batch);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.spec_index < b.spec_index;
  });
  return out;
}

std::string dataset_bytes(const Config& config, const std::string& name,
                          const std::vector<be::TrajectoryBatch>& batches) {
  const std::string path = work_path(config, name);
  {
    dataset::StreamWriter writer(path);
    for (const be::TrajectoryBatch& b : batches) writer.append(b);
    writer.close();
  }
  std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// Per job: one dataset shard and the sink-built table. The checks read
/// the shard back and re-run its leading specs on one thread.
class PrepSink final : public JobSink {
 public:
  PrepSink(const Config& config, const Prepared& prepared,
           const be::Options& base, Tracer& tracer)
      : config_(config),
        prepared_(prepared),
        base_(base),
        tracer_(tracer),
        path_(work_path(config, "prep-shard.ptsb")),
        writer_(path_) {}

  void consume(be::TrajectoryBatch&& batch) override {
    {
      Scope a(tracer_, "dataset.append");
      writer_.append(batch);
    }
    Scope t(tracer_, "stats.add_batch");
    sink_table_.add_batch(batch);
  }

  void finish(const LocalJob& job, Pass&) override {
    {
      Scope s(tracer_, "dataset.close");
      writer_.close();
    }
    bytes = writer_.bytes_written();
    shots = job.summary.total_shots;
  }

  void check(const LocalJob& job, Pass& pass, Outcome& out) override {
    // Read-back: the file holds exactly what the sink saw.
    const std::int64_t read_start = now_ns();
    stats::ShotTable file_table;
    stats::Comparison cmp;
    {
      Scope s(tracer_, "stats.table");
      file_table = stats::table_of_file(path_);
    }
    {
      Scope s(tracer_, "stats.compare");
      cmp = stats::compare(file_table, sink_table_);
    }
    pass.readbacks.push_back({file_table.total(), seconds_since(read_start)});
    distinct = file_table.distinct();
    out.check(cmp.exact_match() && file_table == sink_table_,
              "prep-heavy: shard read back differs from the sink's records");

    // Determinism: a 1-thread independent re-run of the leading specs
    // reproduces the shard's bytes.
    if (job.index % kRerunEvery != 0) return;
    const std::size_t k = std::min(kRerunSpecs, job.specs.size());
    be::Options serial = base_;
    serial.seed = job.options.seed;
    serial.threads = 1;
    serial.schedule = be::Schedule::kIndependent;
    serial.plan = nullptr;
    const be::Result rerun = be::execute(
        prepared_.noisy,
        std::vector<TrajectorySpec>(job.specs.begin(), job.specs.begin() + k),
        serial);
    out.check(dataset_bytes(config_, "rerun.ptsb", rerun.batches) ==
                  dataset_bytes(config_, "leading.ptsb",
                                leading_batches(path_, k)),
              "prep-heavy: 1-thread re-run is not byte-identical");
  }

 private:
  const Config& config_;
  const Prepared& prepared_;
  const be::Options& base_;
  Tracer& tracer_;
  std::string path_;
  dataset::StreamWriter writer_;
  stats::ShotTable sink_table_;
};

}  // namespace

Outcome run_prep_heavy(const Config& config) {
  const Sizes sizes = sizes_for(config);
  // The circuit is fixed, as in a dataset campaign over one program; the
  // workload seed draws each job's PTS/BE seed. A seed-drawn circuit would
  // change the output distribution's entropy, and with it the read-back
  // cost, from seed to seed.
  const std::string text = brickwork_ptq(sizes.qubits, sizes.depth, kGateNoise,
                                         kLayoutSeed, kAngleSeed);
  BackendConfig backend;
  backend.fuse_gates = true;

  std::optional<Prepared> prepared;  // The first set-up's.
  const auto set_up_once = [&](Tracer& tracer) {
    Prepared p = set_up(text, backend, tracer);
    if (!prepared) prepared = std::move(p);
  };
  be::Options base;
  Outcome out = run_local(config, set_up_once, [&] {
    base.backend = "statevector";
    base.config = backend;
    base.schedule = be::Schedule::kSharedPrefix;
    base.threads = std::max<std::size_t>(1, config.nproc / 2);
    base.plan = prepared->plan;
    LocalWorkload workload;
    workload.noisy = &prepared->noisy;
    workload.options = base;
    workload.strategy.nsamples = sizes.nsamples;
    workload.strategy.nshots = sizes.nshots;
    workload.min_jobs = sizes.min_jobs;
    workload.gate_count = prepared->plan->gate_count;
    workload.open = [&](const Pipeline&, Tracer& tracer) {
      return std::make_unique<PrepSink>(config, *prepared, base, tracer);
    };
    return workload;
  });
  if (!config.trace) return out;

  out.layers["plan.build_s"] =
      span_stats(out.setup_spans, "plan.build").median_s;
  out.layers["plan.fusion_ratio"] =
      static_cast<double>(prepared->plan->gate_count) /
      static_cast<double>(prepared->plan->unfused_gate_count);
  return out;
}

}  // namespace perfbench
