// The PTSBE benchmark entry point.
//
//   ptsbe_perfbench --workload <prep-heavy|qec-memory|served-wire>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--small] [--workdir <dir>]
//
// With --trace 0 the last stdout line is a JSON object whose metrics are the
// end-to-end metrics, measured with tracing off. With --trace 1 the run
// measures an untraced pass and then a traced pass, and the metrics are the
// per-layer metrics from the traced pass plus the tracing overhead (the
// traced pass's job throughput against the untraced one). The lines before
// the last one carry the host record, the operation counts and a readable
// report. The exit code is nonzero when any output check failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ptsbe/kernels/kernel_set.hpp"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every per-layer metric, in report order, with its unit. Layers a
/// workload bypasses read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"pts.sample_s", "s"},
      {"pts.accept_ratio", "ratio"},
      {"plan.build_s", "s"},
      {"plan.fusion_ratio", "ratio"},
      {"be.execute_s", "s"},
      {"be.prepare_busy_s", "s"},
      {"be.sample_busy_s", "s"},
      {"be.worker_busy_frac", "ratio"},
      {"kernels.bytes_computed", "bytes"},
      {"sink.busy_s", "s"},
      {"sink.busy_frac", "ratio"},
      {"dataset.append_s", "s"},
      {"dataset.bytes", "bytes"},
      {"qec.decode_s", "s"},
      {"qec.ns_per_shot", "ns"},
      {"stats.merge_s", "s"},
      {"stats.table_s", "s"},
      {"stats.compare_s", "s"},
      {"stats.distinct_records", "count"},
      {"io.parse_ms", "ms"},
      {"serve.submit_ms", "ms"},
      {"serve.job_latency_ms", "ms"},
      {"serve.plan_cache_hit_rate", "ratio"},
      {"serve.queue_high_water", "count"},
      {"serve.idle_job_ms", "ms"},
      {"serve.idle_big_job_ms", "ms"},
      {"net.job_latency_ms", "ms"},
      {"net.overhead_ms", "ms"},
      {"net.batches_per_job", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unaccounted_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return names;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Median over windows of `field` per second.
double rate(const Pass& pass, double Window::*field) {
  std::vector<double> rates;
  for (const Window& w : pass.windows) rates.push_back(w.*field / w.seconds);
  return median(std::move(rates));
}

double readback_rate(const Pass& pass) {
  std::vector<double> rates;
  for (const Readback& r : pass.readbacks)
    rates.push_back(r.records / r.seconds);
  return median(std::move(rates));
}

std::vector<Metric> end_to_end(const Outcome& out, const Pass& pass) {
  const Tail tail = tail_percentile(pass.job_s);
  return {
      {"setup_s", median(out.setup_s), "s"},
      {"trajectories_per_s", rate(pass, &Window::specs), "specs/s"},
      {"shots_per_s", rate(pass, &Window::shots), "shots/s"},
      {"readback_records_per_s", readback_rate(pass), "records/s"},
      {"jobs_per_s", rate(pass, &Window::jobs), "jobs/s"},
      {"job_latency_p50_ms", median(pass.job_s) * 1e3, "ms"},
      {"job_latency_tail_ms", tail.value * 1e3, "ms"},
      {"peak_rss_mb", median(pass.peak_rss_mib), "MiB"},
  };
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

void print_tail(const Pass& pass) {
  const Tail tail = tail_percentile(pass.job_s);
  std::printf("  job_latency_tail_ms is p%u of %zu jobs (%zu beyond it)\n",
              tail.percentile, tail.samples, tail.beyond);
}

std::string host_record(const Config& config) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::ostringstream os;
  os << "{\"nproc\": " << config.nproc << ", \"dispatch\": \""
     << json_escape(ptsbe::kernels::describe_dispatch())
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\", \"omp_num_threads\": \"" << json_escape(omp ? omp : "unset")
     << "\", \"workload\": \"" << json_escape(config.workload)
     << "\", \"seed\": " << config.seed << "}";
  return os.str();
}

void print_accounting(const std::vector<Span>& spans) {
  const Accounting acc = account(spans);
  std::printf("traced wall time by layer (self time; %.3f lane-s total)\n",
              acc.lane_s);
  for (const auto& [layer, self] : acc.layer_self_s)
    std::printf("  %-10s %10.4f s  %6.2f%%\n", layer.c_str(), self,
                acc.lane_s > 0 ? 100.0 * self / acc.lane_s : 0.0);
  std::printf("  unaccounted share of lane time: %.4f%%\n",
              100.0 * acc.unaccounted_frac());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ptsbe_perfbench: %s\nusage: ptsbe_perfbench --workload "
               "<prep-heavy|qec-memory|served-wire> --seed <n> --seconds <s> "
               "--trace <0|1> [--small] [--workdir <dir>]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  Config config;
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  config.workdir = ".bench_build/perfbench-work";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        config.trace = v == "1";
      } else if (arg == "--small") {
        config.small = true;
      } else if (arg == "--workdir") {
        config.workdir = value();
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(config.seconds > 0.0 && config.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");
  const std::map<std::string, std::function<Outcome(const Config&)>>
      workloads = {{"prep-heavy", run_prep_heavy},
                   {"qec-memory", run_qec_memory},
                   {"served-wire", run_served_wire}};
  const auto workload = workloads.find(config.workload);
  if (workload == workloads.end()) return usage("unknown --workload");

  config.workdir += "/" + config.workload + "-" + std::to_string(config.seed);
  std::filesystem::create_directories(config.workdir);
  const Outcome out = workload->second(config);
  std::filesystem::remove_all(config.workdir);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.small ? " small" : "");
  std::printf("host: %s\n", host_record(config).c_str());
  std::printf(
      "operations: jobs %llu/%llu failed, batches %llu/%llu failed, "
      "checks %llu/%llu failed\n",
      static_cast<unsigned long long>(out.jobs.failed),
      static_cast<unsigned long long>(out.jobs.attempted),
      static_cast<unsigned long long>(out.batches.failed),
      static_cast<unsigned long long>(out.batches.attempted),
      static_cast<unsigned long long>(out.checks.failed),
      static_cast<unsigned long long>(out.checks.attempted));
  for (const std::string& note : out.notes)
    std::printf("note: %s\n", note.c_str());

  std::printf("setup samples (s):");
  for (const double t : out.setup_s) std::printf(" %.6f", t);
  std::printf("\n");
  const std::vector<Metric> untraced = end_to_end(out, out.untraced);
  print_metrics("end-to-end (tracing off)", untraced);
  print_tail(out.untraced);
  std::vector<Metric> metrics = untraced;
  if (config.trace) {
    print_metrics("end-to-end (traced pass)", end_to_end(out, out.traced));
    print_tail(out.traced);
    print_accounting(out.spans);
    std::map<std::string, double> layers = out.layers;
    layers["trace.overhead_frac"] = 1.0 - rate(out.traced, &Window::jobs) /
                                              rate(out.untraced, &Window::jobs);
    layers["trace.unaccounted_frac"] = account(out.spans).unaccounted_frac();
    layers["trace.spans"] = static_cast<double>(out.spans.size());
    metrics.clear();
    for (const auto& [name, unit] : layer_metrics())
      metrics.push_back({name, layers[name], unit});
    print_metrics("per-layer (traced pass; per job unless a ratio)", metrics);
  }

  const std::uint64_t attempted =
      out.jobs.attempted + out.batches.attempted + out.checks.attempted;
  const std::uint64_t failed =
      out.jobs.failed + out.batches.failed + out.checks.failed;
  const bool correct = failed == 0 && out.checks.attempted > 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptsbe_perfbench: %s\n", e.what());
    return 1;
  }
}
