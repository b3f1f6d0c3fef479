// ptsbe_serve — the service loop end to end: a newline-delimited job file
// stands in for a fleet of tenants. Every line is one job (key=value
// tokens), every circuit is a `.ptq` file, and the whole stream is pushed
// through one shared serve::Engine — submissions are asynchronous, repeat
// circuits hit the ExecPlan cache, and a full admission queue rejects with
// status instead of buffering.
//
//   ptsbe_serve examples/jobs/demo.jobs
//   ptsbe_serve --workers 4 --queue 32 --repeat 16 demo.jobs
//
// Job-file grammar: blank lines and '#' comments are skipped; otherwise
//   circuit=PATH [KEY=VALUE ...]
// where each KEY=VALUE is a job-config entry (the keys and checks of
// ptsbe/serve/job_config.hpp, shared with the SUBMIT wire frame). circuit
// paths are resolved relative to the job file's directory; `source`
// defaults to the circuit path.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ptsbe/serve/engine.hpp"
#include "ptsbe/serve/job_config.hpp"

namespace {

// SIGINT/SIGTERM request a graceful drain: the handler only flips this
// flag; the submission loop then shuts the engine down (in-flight jobs
// finish, further submissions are kRejected with RejectReason::kShutdown)
// and the process exits 0.
volatile std::sig_atomic_t g_shutdown = 0;

void on_signal(int) { g_shutdown = 1; }

void usage(std::FILE* os, const char* argv0) {
  std::fprintf(os,
      "usage: %s [options] <jobfile>\n"
      "  --workers N   concurrent job slots (0 = hardware concurrency) [2]\n"
      "  --queue N     admission queue bound (beyond it: reject) [64]\n"
      "  --cache N     ExecPlan LRU capacity (0 = disable) [32]\n"
      "  --repeat K    submit the job list K times (cache demo) [1]\n"
      "  --selftest-signal MS  raise SIGTERM after MS milliseconds\n"
      "                        (graceful-drain smoke test)\n",
      argv0);
}

[[noreturn]] void reject(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "error: %s\n\n", what.c_str());
  usage(stderr, argv0);
  std::exit(2);
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// One job-file line -> JobRequest. Throws std::runtime_error with a
/// line-anchored message on malformed input.
ptsbe::serve::JobRequest parse_job_line(const std::string& line,
                                        const std::string& base_dir,
                                        std::size_t line_no) {
  ptsbe::serve::JobRequest req;
  std::string circuit_path;
  std::istringstream tokens(line);
  std::string token;
  const auto bad = [line_no](const std::string& why) -> std::runtime_error {
    return std::runtime_error("job file line " + std::to_string(line_no) +
                              ": " + why);
  };
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw bad("expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "circuit") {
      circuit_path = base_dir + value;
      continue;
    }
    try {
      ptsbe::serve::set_job_field(req, key, value);
    } catch (const ptsbe::serve::JobConfigError& e) {
      throw bad(e.what());
    }
  }
  if (circuit_path.empty()) throw bad("missing circuit=PATH");
  req.circuit_text = read_file(circuit_path);
  if (req.source_name.empty()) req.source_name = circuit_path;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptsbe;

  serve::EngineConfig config;
  config.workers = 2;
  std::size_t repeat = 1;
  long selftest_signal_ms = -1;
  std::string job_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) reject(argv[0], arg + " needs a value");
      return argv[++i];
    };
    // Strict numbers: a malformed value is a usage error naming both.
    const auto u64 = [&](std::uint64_t max =
                             std::numeric_limits<std::uint64_t>::max()) {
      try {
        return serve::parse_u64(arg, value(), max);
      } catch (const serve::JobConfigError& e) {
        reject(argv[0], e.what());
      }
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--workers") {
      config.workers = u64();
    } else if (arg == "--queue") {
      config.queue_capacity = u64();
    } else if (arg == "--cache") {
      config.plan_cache_capacity = u64();
    } else if (arg == "--repeat") {
      repeat = u64();
    } else if (arg == "--selftest-signal") {
      selftest_signal_ms =
          static_cast<long>(u64(std::numeric_limits<long>::max()));
    } else if (!arg.empty() && arg[0] == '-') {
      reject(argv[0], "unknown option '" + arg + "'");
    } else if (job_path.empty()) {
      job_path = arg;
    } else {
      reject(argv[0], "more than one job file given");
    }
  }
  if (job_path.empty()) reject(argv[0], "no job file given");

  // Parse the whole job stream up front: a malformed job file is a usage
  // error (exit 2) before any engine work starts.
  std::vector<serve::JobRequest> requests;
  try {
    std::ifstream is(job_path);
    if (!is)
      throw std::runtime_error("cannot open '" + job_path + "' for reading");
    const std::string base_dir = dirname_of(job_path);
    std::string line;
    for (std::size_t line_no = 1; std::getline(is, line); ++line_no) {
      const std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      requests.push_back(parse_job_line(line, base_dir, line_no));
    }
  } catch (const std::exception& e) {
    reject(argv[0], e.what());
  }
  if (requests.empty()) reject(argv[0], "job file has no jobs");

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  serve::Engine engine(config);
  std::printf("engine: workers=%zu queue=%zu plan-cache=%zu jobs=%zu x%zu\n",
              engine.num_workers(), config.queue_capacity,
              config.plan_cache_capacity, requests.size(), repeat);

  // Drain-path smoke: raise SIGTERM from a thread after a delay so a ctest
  // run exercises the real handler + drain sequence.
  std::thread selftest;
  if (selftest_signal_ms >= 0) {
    selftest = std::thread([selftest_signal_ms] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(selftest_signal_ms));
      (void)std::raise(SIGTERM);
    });
  }

  // Submit everything asynchronously, then wait in submission order. A
  // kRejected handle is the engine's backpressure signal — a well-behaved
  // client reacts by draining its oldest outstanding job and resubmitting,
  // so a stream larger than the admission queue still completes.
  std::vector<serve::JobHandle> jobs;
  jobs.reserve(requests.size() * repeat);
  std::size_t drain_cursor = 0;
  std::size_t backpressure_retries = 0;
  bool drained = false;
  const auto submit_throttled = [&](const serve::JobRequest& req) {
    // A signal turns the remaining submissions into shutdown rejections:
    // the engine stops admitting (distinct status kShutdown) while every
    // already-admitted job runs to completion.
    if (g_shutdown != 0 && !drained) {
      drained = true;
      std::printf("signal received: draining in-flight jobs, rejecting new "
                  "admissions\n");
      engine.shutdown();
    }
    while (true) {
      serve::JobHandle handle = engine.submit(req);
      if (handle.status() != serve::JobStatus::kRejected ||
          handle.reject_reason() == serve::RejectReason::kShutdown ||
          drain_cursor >= jobs.size())
        return handle;
      ++backpressure_retries;
      try {
        (void)jobs[drain_cursor].wait();
      } catch (const std::exception&) {
        // Failed jobs are reported in the wait loop below; here we only
        // need the slot back.
      }
      ++drain_cursor;
    }
  };
  for (std::size_t r = 0; r < repeat; ++r)
    for (const serve::JobRequest& req : requests)
      jobs.push_back(submit_throttled(req));

  int failures = 0;
  std::size_t shutdown_rejected = 0;
  for (serve::JobHandle& job : jobs) {
    if (job.status() == serve::JobStatus::kRejected &&
        job.reject_reason() == serve::RejectReason::kShutdown) {
      ++shutdown_rejected;  // shed by the drain, not a failure
      continue;
    }
    try {
      const RunResult& run = job.wait();
      std::printf(
          "job %llu: done  strategy=%s backend=%s specs=%zu shots=%llu "
          "plan-cache=%s\n",
          static_cast<unsigned long long>(job.id()), run.strategy.c_str(),
          run.backend.c_str(), run.num_specs,
          static_cast<unsigned long long>(run.result.total_shots()),
          job.plan_cache_hit() ? "hit" : "miss");
    } catch (const std::exception& e) {
      ++failures;
      std::printf("job %llu: %s (%s)\n",
                  static_cast<unsigned long long>(job.id()),
                  serve::to_string(job.status()).c_str(), e.what());
    }
  }

  const serve::EngineStats stats = engine.stats();
  if (backpressure_retries != 0)
    std::printf("backpressure: %zu submissions retried after rejection\n",
                backpressure_retries);
  std::printf(
      "stats: submitted=%llu served=%llu failed=%llu cancelled=%llu "
      "rejected=%llu cache-hit-rate=%.2f queue-depth=%zu\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.served),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.rejected),
      stats.plan_cache_hit_rate(), stats.queue_depth);
  if (selftest.joinable()) selftest.join();
  if (drained) {
    std::printf("drained: %zu admissions rejected with shutdown status, "
                "exiting cleanly\n", shutdown_rejected);
  }
  return failures == 0 ? 0 : 1;
}
