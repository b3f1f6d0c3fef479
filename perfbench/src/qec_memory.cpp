// qec-memory: rotated-surface d=3 memory experiment (3 rounds) on the
// stabilizer backend, written as dataset shards and decoded in the sink.
//
// Each job samples specs (`Pipeline::sample`), streams them through
// `be::execute_streaming` on one worker per two cores and, on the calling
// thread, writes every batch to a single-stream dataset and to one of four
// spec-ordered shards, decodes it with `st-union-find` through
// `qec::LogicalErrorAccumulator`, and adds it to the sink-built
// `stats::ShotTable`. The job then reads the data back:
// `stats::merge_datasets` over the shards, `stats::table_of_file` on the
// merged file, `stats::compare` against the sink-built table. Chosen because
// the kernels layer is bypassed (stabilizer) and the work sits in bulk
// sampling, the sink thread (decode, dataset writes) and the stats reads.
// d >= 5 does not fit 64-bit records.
//
// Checks, between jobs: every batch arrives once; the merged shards equal
// the single-stream dataset byte for byte; every compare distance is
// exactly 0; the decoded shot count equals the shots requested.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "local.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/qec/metrics.hpp"
#include "ptsbe/qec/spacetime.hpp"
#include "ptsbe/qec/workload.hpp"
#include "ptsbe/stats/compare.hpp"
#include "ptsbe/stats/merge.hpp"
#include "ptsbe/stats/shot_table.hpp"

namespace perfbench {
namespace {

using namespace ptsbe;

struct Sizes {
  std::size_t nsamples;  ///< PTS draws per job.
  std::uint64_t nshots;  ///< Shots per draw.
  std::size_t min_jobs;
};

Sizes sizes_for(const Config& config) {
  if (config.small) return {60, 20, 2};
  return {300, 1000, 12};
}

constexpr std::size_t kShards = 4;

/// Set-up output: the workload, its parsed program and its decoder (which
/// borrows the workload's experiment, so Prepared stays put on the heap).
struct Prepared {
  qec::MemoryWorkload workload;
  NoisyCircuit noisy;
  std::unique_ptr<qec::ShotDecoder> decoder;
};

std::unique_ptr<Prepared> set_up(Tracer& tracer) {
  Scope lane(tracer, "bench.setup");
  qec::MemoryWorkloadConfig config;
  config.code = "surface";
  config.distance = 3;
  config.rounds = 3;
  config.noise = 0.005;
  qec::MemoryWorkload workload = [&] {
    Scope s(tracer, "qec.workload");
    return qec::make_memory_workload(config);
  }();
  const std::string text = workload.to_ptq();
  NoisyCircuit noisy = [&] {
    Scope s(tracer, "io.parse");
    return io::parse_circuit(text);
  }();
  auto prepared = std::make_unique<Prepared>(
      Prepared{std::move(workload), std::move(noisy), nullptr});
  Scope s(tracer, "qec.decoder_build");
  prepared->decoder =
      qec::make_shot_decoder("st-union-find", prepared->workload.experiment);
  return prepared;
}

/// Per job: a single-stream dataset, four spec-ordered shards, the decoder
/// and the sink-built table; then, timed, the read-back through stats.
class QecSink final : public JobSink {
 public:
  QecSink(const Config& config, const Prepared& prepared,
          const Pipeline& pipeline, std::uint64_t requested_shots,
          Tracer& tracer)
      : tracer_(tracer),
        requested_shots_(requested_shots),
        single_path_(work_path(config, "qec-single.ptsb")),
        merged_path_(work_path(config, "qec-merged.ptsb")),
        single_(single_path_),
        decoded_(*prepared.decoder, pipeline.weighting()) {
    for (std::size_t s = 0; s < kShards; ++s) {
      shard_paths_.push_back(
          work_path(config, "qec-shard-" + std::to_string(s) + ".ptsb"));
      shards_.push_back(
          std::make_unique<dataset::StreamWriter>(shard_paths_.back()));
    }
  }

  // Batches arrive in completion order; shards must be spec-ordered, so
  // the sink releases them through a reorder buffer.
  void consume(be::TrajectoryBatch&& batch) override {
    pending_.emplace(batch.spec_index, std::move(batch));
    while (!pending_.empty() && pending_.begin()->first == next_) {
      emit(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_;
    }
  }

  void finish(const LocalJob& job, Pass& pass) override {
    {
      Scope s(tracer_, "dataset.close");
      single_.close();
      for (auto& w : shards_) w->close();
    }
    bytes = single_.bytes_written();
    for (auto& w : shards_) bytes += w->bytes_written();
    shots = decoded_.shots();
    executed_shots_ = job.summary.total_shots;

    const std::int64_t read_start = now_ns();
    stats::MergeReport merged;
    {
      Scope s(tracer_, "stats.merge");
      merged = stats::merge_datasets(merged_path_, shard_paths_);
    }
    {
      Scope s(tracer_, "stats.table");
      file_table_ = stats::table_of_file(merged_path_);
    }
    {
      Scope s(tracer_, "stats.compare");
      cmp_ = stats::compare(file_table_, sink_table_);
    }
    pass.readbacks.push_back(
        {static_cast<double>(merged.records), seconds_since(read_start)});
  }

  void check(const LocalJob&, Pass&, Outcome& out) override {
    out.check(slurp(merged_path_) == slurp(single_path_),
              "qec-memory: merged shards differ from the single-stream bytes");
    out.check(cmp_.exact_match() && file_table_ == sink_table_,
              "qec-memory: compare distances against the sink table not 0");
    out.check(shots == requested_shots_ && executed_shots_ == requested_shots_,
              "qec-memory: decoded shot count differs from shots requested");
    distinct = file_table_.distinct();
  }

 private:
  void emit(const be::TrajectoryBatch& batch) {
    {
      Scope s(tracer_, "dataset.append");
      single_.append(batch);
      shards_[batch.spec_index % kShards]->append(batch);
    }
    {
      Scope s(tracer_, "qec.decode");
      decoded_.consume(batch);
    }
    Scope s(tracer_, "stats.add_batch");
    sink_table_.add_batch(batch);
  }

  Tracer& tracer_;
  std::uint64_t requested_shots_;
  std::string single_path_, merged_path_;
  std::vector<std::string> shard_paths_;
  dataset::StreamWriter single_;
  std::vector<std::unique_ptr<dataset::StreamWriter>> shards_;
  qec::LogicalErrorAccumulator decoded_;
  stats::ShotTable sink_table_, file_table_;
  stats::Comparison cmp_;
  std::map<std::size_t, be::TrajectoryBatch> pending_;
  std::size_t next_ = 0;
  std::uint64_t executed_shots_ = 0;
};

}  // namespace

Outcome run_qec_memory(const Config& config) {
  const Sizes sizes = sizes_for(config);
  std::unique_ptr<Prepared> prepared;  // The first set-up's.
  const auto set_up_once = [&](Tracer& tracer) {
    std::unique_ptr<Prepared> p = set_up(tracer);
    if (!prepared) prepared = std::move(p);
  };
  Outcome out = run_local(config, set_up_once, [&] {
    LocalWorkload workload;
    workload.noisy = &prepared->noisy;
    workload.options.backend = "stabilizer";
    // One worker per two cores: the decode on the calling thread is the
    // bottleneck and needs a core of its own. With one worker per core on
    // a shared 4-core host, runs of one seed read up to 34% apart.
    workload.options.threads = std::max<std::size_t>(1, config.nproc / 2);
    workload.strategy.nsamples = sizes.nsamples;
    workload.strategy.nshots = sizes.nshots;
    workload.min_jobs = sizes.min_jobs;
    workload.open = [&](const Pipeline& pipeline, Tracer& tracer) {
      return std::make_unique<QecSink>(config, *prepared, pipeline,
                                       sizes.nsamples * sizes.nshots, tracer);
    };
    return workload;
  });
  if (!config.trace) return out;

  const double jobs = static_cast<double>(out.traced.job_s.size());
  const SpanStats decode = span_stats(out.spans, "qec.decode");
  out.layers["qec.decode_s"] = decode.total_s / jobs;
  out.layers["qec.ns_per_shot"] =
      decode.total_s * 1e9 / static_cast<double>(out.traced.shots);
  out.layers["stats.merge_s"] =
      span_stats(out.spans, "stats.merge").total_s / jobs;
  return out;
}

}  // namespace perfbench
