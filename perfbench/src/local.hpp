#pragma once

/// \file local.hpp
/// \brief The job loop and driver shared by the local workloads.
///
/// A local job samples specs (`Pipeline::sample`) and streams them through
/// `be::execute_streaming` into a workload-specific sink. The loop counts
/// batch arrivals, times each job, records its peak resident set and
/// totals the executor's busy times. The workload supplies only its set-up,
/// its sink and its checks.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/pipeline.hpp"

namespace perfbench {

/// One job as the shared loop ran it.
struct LocalJob {
  std::size_t index = 0;
  ptsbe::be::Options options;  ///< With this job's seed.
  std::vector<ptsbe::TrajectorySpec> specs;
  ptsbe::be::StreamSummary summary;
};

/// A workload's outputs for one job. One is opened per job, inside the
/// timed section and the job's lane span.
class JobSink {
 public:
  virtual ~JobSink() = default;
  /// One batch, on the calling thread, inside the `sink.batch` span.
  virtual void consume(ptsbe::be::TrajectoryBatch&& batch) = 0;
  /// Timed work after the executor returns: close the outputs and, where
  /// the workload times it, read them back. Sets `shots` and `bytes`.
  virtual void finish(const LocalJob& job, Pass& pass) = 0;
  /// Untimed output checks. Sets `distinct`.
  virtual void check(const LocalJob& job, Pass& pass, Outcome& out) = 0;

  std::uint64_t shots = 0;     ///< Shots delivered (written and decoded).
  std::uint64_t bytes = 0;     ///< Dataset bytes written.
  std::uint64_t distinct = 0;  ///< Distinct records read back.
};

/// What the shared loop needs from a local workload.
struct LocalWorkload {
  const ptsbe::NoisyCircuit* noisy = nullptr;
  ptsbe::be::Options options;  ///< The seed is set per job.
  ptsbe::pts::StrategyConfig strategy;
  std::size_t min_jobs = 1;
  /// Gates per preparation for `kernels.bytes_computed`; 0 when the
  /// backend runs no amplitude kernels.
  std::uint64_t gate_count = 0;
  /// Opens the sink of a job whose pipeline is given.
  std::function<std::unique_ptr<JobSink>(const ptsbe::Pipeline&, Tracer&)>
      open;
};

/// Runs a local workload. `set_up` performs one set-up (recording its
/// spans on the tracer given); the first is timed before the first job,
/// the rest are spread between the untraced pass's jobs. `workload` is
/// called once, after the first set-up. With --trace 1 a traced pass
/// follows, and the layers common to local workloads are filled from its
/// spans; the caller adds its own.
Outcome run_local(const Config& config,
                  const std::function<void(Tracer&)>& set_up,
                  const std::function<LocalWorkload()>& workload);

}  // namespace perfbench
