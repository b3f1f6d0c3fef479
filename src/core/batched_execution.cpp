#include "ptsbe/core/batched_execution.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "ptsbe/common/error.hpp"
#include "ptsbe/core/prefix_scheduler.hpp"
#include "ptsbe/core/trajectory_executor.hpp"

namespace ptsbe::be {

namespace {

/// Per-worker accounting, merged into the StreamSummary after the executor
/// drains (the join publishes every slot). Cache-line sized so adjacent
/// workers don't false-share their accumulators.
struct alignas(64) WorkerAccum {
  std::size_t num_batches = 0;
  std::uint64_t total_shots = 0;
  double prepare_seconds = 0.0;
  double sample_seconds = 0.0;
};

StreamSummary merge(const std::vector<WorkerAccum>& accums,
                    Schedule executed) {
  StreamSummary summary;
  summary.schedule = executed;
  for (const WorkerAccum& a : accums) {
    summary.num_batches += a.num_batches;
    summary.total_shots += a.total_shots;
    summary.prepare_seconds += a.prepare_seconds;
    summary.sample_seconds += a.sample_seconds;
  }
  return summary;
}

/// Shared-prefix schedule: sort specs lexicographically by their dense
/// branch assignment so overlapping trajectories are contiguous, then walk
/// the whole trie as one work-stealing DFS — fork points spawn subtree
/// tasks, so parallelism appears exactly where trajectories deviate and the
/// shared work is still done once.
StreamSummary execute_streaming_shared(const NoisyCircuit& noisy,
                                       const std::vector<TrajectorySpec>& specs,
                                       const Options& options,
                                       const BatchSink& sink,
                                       const Backend& backend,
                                       const RngStream& master) {
  // An injected plan (the serve engine's cache) replaces the per-call
  // fusion+lowering pass; otherwise build one for this run.
  const ExecPlan local_plan =
      options.plan ? ExecPlan{} : backend.make_plan(noisy);
  const ExecPlan& plan = options.plan ? *options.plan : local_plan;
  const std::vector<std::vector<std::size_t>> assignments =
      all_assignments(noisy, specs);
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (assignments[a] != assignments[b]) return assignments[a] < assignments[b];
    return a < b;  // keep duplicate assignments in spec order
  });

  TrajectoryExecutor executor(resolved_threads(options));
  std::vector<WorkerAccum> accums(executor.num_workers());
  std::vector<double> prepare_seconds(executor.num_workers(), 0.0);
  // Worker-side delivery: wrap the ShotResult into a TrajectoryBatch,
  // account on this worker's slot (single-writer, lock-free by
  // construction) and hand the batch to the drain loop's lock-free queue.
  // The sink itself runs only on the calling thread, inside drain().
  const SpecResultFn emit = [&](std::size_t worker, std::size_t t,
                                ShotResult&& shot) {
    TrajectoryBatch batch;
    batch.spec_index = t;
    batch.spec = specs[t];
    batch.records = std::move(shot.records);
    batch.realized_probability = shot.realized_probability;
    WorkerAccum& accum = accums[worker];
    accum.num_batches += 1;
    accum.total_shots += batch.records.size();
    accum.sample_seconds += shot.sample_seconds;
    executor.emit(std::move(batch));
  };
  spawn_shared_prefix(executor, backend, noisy, plan, specs, assignments,
                      order, master, emit, prepare_seconds);
  executor.drain([&sink](TrajectoryBatch&& batch) { sink(std::move(batch)); });
  for (std::size_t w = 0; w < accums.size(); ++w)
    accums[w].prepare_seconds += prepare_seconds[w];
  return merge(accums, Schedule::kSharedPrefix);
}

}  // namespace

const std::string& to_string(Schedule schedule) {
  static const std::string kIndependentName = "independent";
  static const std::string kSharedPrefixName = "shared-prefix";
  return schedule == Schedule::kSharedPrefix ? kSharedPrefixName
                                             : kIndependentName;
}

Schedule schedule_from_string(const std::string& name) {
  if (name == "independent") return Schedule::kIndependent;
  if (name == "shared-prefix") return Schedule::kSharedPrefix;
  throw precondition_error("unknown schedule '" + name +
                           "'; known schedules: independent shared-prefix");
}

std::uint64_t Result::total_shots() const noexcept {
  std::uint64_t total = 0;
  for (const TrajectoryBatch& b : batches) total += b.records.size();
  return total;
}

double Result::unique_shot_fraction() const {
  const std::uint64_t total = total_shots();
  // Empty results (no batches, or only unrealizable zero-record batches)
  // have no well-defined fraction; return 0.0 rather than dividing into
  // NaN. Pinned by tests/test_scheduler.cpp.
  if (total == 0) return 0.0;
  // Single pass, no materialised concatenation: the distinct set is built
  // directly from each batch's records.
  std::unordered_set<std::uint64_t> distinct;
  distinct.reserve(static_cast<std::size_t>(total));
  for (const TrajectoryBatch& b : batches)
    distinct.insert(b.records.begin(), b.records.end());
  return static_cast<double>(distinct.size()) / static_cast<double>(total);
}

double unique_fraction(const std::vector<std::uint64_t>& records) {
  if (records.empty()) return 0.0;
  std::unordered_set<std::uint64_t> distinct(records.begin(), records.end());
  return static_cast<double>(distinct.size()) /
         static_cast<double>(records.size());
}

StreamSummary execute_streaming(const NoisyCircuit& noisy,
                                const std::vector<TrajectorySpec>& specs,
                                const Options& options, const BatchSink& sink) {
  PTSBE_REQUIRE(static_cast<bool>(sink), "streaming execution needs a sink");
  // Resolve the backend by name once; the instance is immutable and its
  // run() is re-entrant, so every worker shares it.
  const BackendPtr backend = make_backend(options.backend, options.config);
  PTSBE_REQUIRE(backend->supports(noisy),
                "backend '" + options.backend +
                    "' does not support this program (gate set, channel "
                    "class or qubit count)");
  // Cheap fingerprint on an injected plan: a plan built for a different
  // program would otherwise sweep the wrong step list and return
  // plausible-looking records. (Matching counts with a different fusion
  // setting remain the caller's contract — see Options::plan.)
  PTSBE_REQUIRE(!options.plan ||
                    (options.plan->site_count == noisy.num_sites() &&
                     options.plan->unfused_gate_count ==
                         noisy.circuit().gate_count()),
                "injected ExecPlan does not match this program (site/gate "
                "counts differ); it must come from make_plan on the same "
                "NoisyCircuit");

  const RngStream master(options.seed);

  if (options.schedule == Schedule::kSharedPrefix && backend->can_fork_states())
    return execute_streaming_shared(noisy, specs, options, sink, *backend,
                                    master);
  // Independent schedule — also the deterministic fallback for backends
  // that cannot fork states (their records are identical under either
  // schedule by contract; the fallback is surfaced via
  // StreamSummary::schedule). The plan is built once and shared by every
  // run_with_plan call; backends that don't prepare through plans
  // (stabilizer — exactly the non-forkable ones today) get an empty
  // placeholder instead of a deep-copied plan their default run_with_plan
  // would discard.
  const ExecPlan local_plan =
      (backend->can_fork_states() && !options.plan) ? backend->make_plan(noisy)
                                                    : ExecPlan{};
  const ExecPlan& plan =
      (options.plan && backend->can_fork_states()) ? *options.plan : local_plan;

  TrajectoryExecutor executor(resolved_threads(options));
  std::vector<WorkerAccum> accums(executor.num_workers());

  // One task per spec, seeded in reverse: a worker pops its own deque
  // newest-first, so with a single worker execution (and therefore
  // delivery) order equals spec order.
  for (std::size_t t = specs.size(); t-- > 0;) {
    executor.spawn([&, t](std::size_t worker) {
      // Cancelled runs (sink or task failure) skip pending trajectories
      // *before* their expensive preparation.
      if (executor.cancelled()) return;
      TrajectoryBatch batch;
      batch.spec_index = t;
      batch.spec = specs[t];
      // Reproducible per-trajectory stream, independent of scheduling.
      RngStream rng = master.substream(t);
      ShotResult shot =
          backend->run_with_plan(noisy, plan, specs[t], specs[t].shots, rng);
      batch.records = std::move(shot.records);
      batch.realized_probability = shot.realized_probability;
      // Accounting is per-worker and lock-free; batch handoff is the
      // executor's lock-free queue. The sink runs on the calling thread.
      WorkerAccum& accum = accums[worker];
      accum.num_batches += 1;
      accum.total_shots += batch.records.size();
      accum.prepare_seconds += shot.prepare_seconds;
      accum.sample_seconds += shot.sample_seconds;
      executor.emit(std::move(batch));
    });
  }
  executor.drain([&sink](TrajectoryBatch&& batch) { sink(std::move(batch)); });

  return merge(accums, Schedule::kIndependent);
}

Result execute(const NoisyCircuit& noisy,
               const std::vector<TrajectorySpec>& specs,
               const Options& options) {
  // The non-streaming path is a materialising sink over the streaming one:
  // batches land at their spec index, restoring spec order (and erasing any
  // thread-scheduling effect on ordering).
  Result result;
  result.batches.resize(specs.size());
  const StreamSummary summary = execute_streaming(
      noisy, specs, options, [&result](TrajectoryBatch&& batch) {
        result.batches[batch.spec_index] = std::move(batch);
      });
  result.schedule = summary.schedule;
  result.prepare_seconds = summary.prepare_seconds;
  result.sample_seconds = summary.sample_seconds;
  return result;
}

}  // namespace ptsbe::be
