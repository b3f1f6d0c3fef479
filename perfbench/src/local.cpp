#include "local.hpp"

#include <exception>
#include <string>

namespace perfbench {
namespace {

using namespace ptsbe;

/// Jobs until `seconds` of timed work (and at least `min_jobs`). Checks and
/// `between_jobs` run outside the timed sections.
Pass measure(const Config& config, const LocalWorkload& workload,
             Tracer& tracer, Outcome& out,
             const std::function<void()>& between_jobs) {
  Pass pass;
  std::uint64_t prepare_ns = 0, sample_ns = 0, execute_ns = 0;
  std::uint64_t draws = 0, bytes = 0, distinct = 0;
  for (std::size_t index = 0; pass.timed_s < config.seconds ||
                              pass.job_s.size() < workload.min_jobs;
       ++index) {
    LocalJob job;
    job.index = index;
    job.options = workload.options;
    job.options.seed = mix_seed(config.seed, index + 1);
    const Pipeline pipeline = Pipeline(*workload.noisy)
                                  .strategy("probabilistic", workload.strategy)
                                  .seed(job.options.seed);
    std::unique_ptr<JobSink> sink;
    std::vector<std::size_t> arrivals;
    bool job_ok = true;
    reset_peak_rss();
    const std::int64_t start = now_ns();
    try {
      Scope lane(tracer, "bench.job");
      sink = workload.open(pipeline, tracer);
      {
        Scope s(tracer, "pts.sample");
        job.specs = pipeline.sample();
      }
      arrivals.assign(job.specs.size(), 0);
      const std::int64_t exec_start = now_ns();
      {
        Scope s(tracer, "be.execute");
        job.summary = be::execute_streaming(
            *workload.noisy, job.specs, job.options,
            [&](be::TrajectoryBatch&& batch) {
              Scope s(tracer, "sink.batch");
              if (batch.spec_index < arrivals.size())
                ++arrivals[batch.spec_index];
              sink->consume(std::move(batch));
            });
      }
      execute_ns += static_cast<std::uint64_t>(now_ns() - exec_start);
      sink->finish(job, pass);
    } catch (const std::exception& e) {
      out.notes.push_back(std::string("job failed: ") + e.what());
      job_ok = false;
    }
    const double latency = seconds_since(start);
    pass.peak_rss_mib.push_back(peak_rss_mib());
    const std::uint64_t shots = job_ok ? sink->shots : 0;
    pass.timed_s += latency;
    pass.job_s.push_back(latency);
    pass.windows.push_back({latency, static_cast<double>(job.specs.size()),
                            static_cast<double>(shots), 1.0});
    pass.specs += job.specs.size();
    pass.shots += shots;
    draws += workload.strategy.nsamples;
    prepare_ns += static_cast<std::uint64_t>(job.summary.prepare_seconds * 1e9);
    sample_ns += static_cast<std::uint64_t>(job.summary.sample_seconds * 1e9);
    out.jobs.add(job_ok);
    for (const std::size_t seen : arrivals) out.batches.add(seen == 1);
    if (!job_ok) continue;

    sink->check(job, pass, out);
    bytes += sink->bytes;
    distinct += sink->distinct;
    sink.reset();
    // The next job's peak starts from live memory, not from whatever the
    // allocator kept of this job's state vectors and tables: that share
    // varies from process to process, and with it the peak.
    trim_heap();
    between_jobs();
  }

  const double jobs = static_cast<double>(pass.job_s.size());
  const double workers = static_cast<double>(workload.options.threads);
  pass.counters["pts.accept_ratio"] =
      draws > 0 ? static_cast<double>(pass.specs) / draws : 0.0;
  pass.counters["be.prepare_busy_s"] = prepare_ns * 1e-9 / jobs;
  pass.counters["be.sample_busy_s"] = sample_ns * 1e-9 / jobs;
  pass.counters["be.worker_busy_frac"] =
      (prepare_ns + sample_ns) / (execute_ns * workers);
  if (workload.gate_count > 0)
    pass.counters["kernels.bytes_computed"] =
        static_cast<double>(computed_bytes(pass.specs, workload.gate_count,
                                           workload.noisy->num_qubits())) /
        jobs;
  pass.counters["dataset.bytes"] = bytes / jobs;
  pass.counters["stats.distinct_records"] = distinct / jobs;
  return pass;
}

}  // namespace

Outcome run_local(const Config& config,
                  const std::function<void(Tracer&)>& set_up,
                  const std::function<LocalWorkload()>& make_workload) {
  Outcome out;
  Tracer setup_tracer(config.trace);
  const auto timed_set_up = [&] {
    const std::int64_t start = now_ns();
    set_up(setup_tracer);
    out.setup_s.push_back(seconds_since(start));
  };
  timed_set_up();
  const LocalWorkload workload = make_workload();

  Tracer off(false);
  out.untraced = measure(config, workload, off, out, [&] {
    if (out.setup_s.size() < kSetupRepeats) timed_set_up();
  });
  while (out.setup_s.size() < kSetupRepeats) timed_set_up();
  if (!config.trace) return out;

  Tracer tracer(true);
  out.traced = measure(config, workload, tracer, out, [] {});
  out.spans = tracer.spans();
  out.setup_spans = setup_tracer.spans();

  const double jobs = static_cast<double>(out.traced.job_s.size());
  const auto per_job = [&](const char* name) {
    return span_stats(out.spans, name).total_s / jobs;
  };
  auto& layer = out.layers;
  layer = out.traced.counters;
  layer["pts.sample_s"] = per_job("pts.sample");
  const SpanStats execute = span_stats(out.spans, "be.execute");
  const SpanStats sink = span_stats(out.spans, "sink.batch");
  layer["be.execute_s"] = execute.self_s / jobs;
  layer["sink.busy_s"] = sink.total_s / jobs;
  layer["sink.busy_frac"] = sink.total_s / execute.total_s;
  layer["dataset.append_s"] = per_job("dataset.append");
  layer["stats.table_s"] = per_job("stats.table");
  layer["stats.compare_s"] = per_job("stats.compare");
  layer["io.parse_ms"] =
      span_stats(out.setup_spans, "io.parse").median_s * 1e3;
  return out;
}

}  // namespace perfbench
