// ptsbe_netd — the wire-protocol serve daemon: one net::Server (engine +
// listener) driven by a config file, with graceful SIGINT/SIGTERM drain.
//
//   ptsbe_netd --config netd.conf
//   ptsbe_netd --port 7411 --workers 4 --quota 8
//
// Config-file grammar (one directive per line; '#' comments and blank
// lines are skipped; later directives and command-line flags win):
//
//   listen HOST            bind address            [127.0.0.1]
//   port N                 TCP port (0 = ephemeral) [0]
//   workers N              engine job slots         [2]
//   queue N                admission queue bound    [64]
//   plan-cache N           ExecPlan LRU capacity    [32]
//   quota N                default per-tenant outstanding-job quota
//                          (0 = unlimited)          [0]
//   tenant-quota NAME N    per-tenant override of `quota`
//   max-payload BYTES      per-frame payload bound  [8 MiB]
//
// On SIGINT/SIGTERM the daemon drains: new connections are refused,
// SUBMITs on open connections get `ERROR shutting-down`, every admitted
// job finishes streaming its result, the final stats JSON is printed, and
// the process exits 0.

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

#include "ptsbe/net/server.hpp"
#include "ptsbe/serve/job_config.hpp"

namespace {

// Strict numbers, with the job-config grammar's checks.
using ptsbe::serve::parse_u64;

volatile std::sig_atomic_t g_shutdown = 0;

void on_signal(int) { g_shutdown = 1; }

void usage(std::FILE* os, const char* argv0) {
  std::fprintf(os,
      "usage: %s [options]\n"
      "  --config PATH          read directives from a config file\n"
      "  --listen HOST          bind address [127.0.0.1]\n"
      "  --port N               TCP port (0 = ephemeral) [0]\n"
      "  --workers N            engine job slots [2]\n"
      "  --queue N              admission queue bound [64]\n"
      "  --cache N              ExecPlan LRU capacity [32]\n"
      "  --quota N              default per-tenant quota (0 = unlimited)\n"
      "  --max-payload BYTES    per-frame payload bound [8388608]\n"
      "  --print-port           print 'port NNNN' once listening\n"
      "  --selftest-signal MS   raise SIGTERM after MS milliseconds\n"
      "                         (drain-path smoke test)\n",
      argv0);
}

[[noreturn]] void reject(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "error: %s\n\n", what.c_str());
  usage(stderr, argv0);
  std::exit(2);
}

/// Apply one config-file directive. Throws std::runtime_error on nonsense.
void apply_directive(ptsbe::net::ServerConfig& config, const std::string& line,
                     std::size_t line_no) {
  std::istringstream tokens(line);
  std::string key;
  tokens >> key;
  const auto bad = [line_no](const std::string& why) -> std::runtime_error {
    return std::runtime_error("config line " + std::to_string(line_no) +
                              ": " + why);
  };
  const auto value = [&]() -> std::string {
    std::string v;
    if (!(tokens >> v)) throw bad("'" + key + "' needs a value");
    return v;
  };
  if (key == "listen") {
    config.listen_host = value();
  } else if (key == "port") {
    config.port = static_cast<std::uint16_t>(parse_u64(
        "port", value(), std::numeric_limits<std::uint16_t>::max()));
  } else if (key == "workers") {
    config.engine.workers = parse_u64("workers", value());
  } else if (key == "queue") {
    config.engine.queue_capacity = parse_u64("queue", value());
  } else if (key == "plan-cache") {
    config.engine.plan_cache_capacity = parse_u64("plan-cache", value());
  } else if (key == "quota") {
    config.engine.tenant_quota = parse_u64("quota", value());
  } else if (key == "tenant-quota") {
    const std::string tenant = value();
    config.engine.tenant_quota_overrides[tenant] =
        parse_u64("tenant-quota", value());
  } else if (key == "max-payload") {
    config.max_payload = parse_u64("max-payload", value());
  } else {
    throw bad("unknown directive '" + key + "'");
  }
  std::string extra;
  if (tokens >> extra) throw bad("trailing token '" + extra + "'");
}

void load_config_file(ptsbe::net::ServerConfig& config,
                      const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open config '" + path + "' for reading");
  }
  std::string line;
  for (std::size_t line_no = 1; std::getline(is, line); ++line_no) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    apply_directive(config, line, line_no);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptsbe;

  net::ServerConfig config;
  config.engine.workers = 2;
  bool print_port = false;
  long selftest_signal_ms = -1;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) reject(argv[0], arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage(stdout, argv[0]);
        return 0;
      } else if (arg == "--config") {
        load_config_file(config, value());
      } else if (arg == "--listen") {
        config.listen_host = value();
      } else if (arg == "--port") {
        config.port = static_cast<std::uint16_t>(parse_u64(
            "port", value(), std::numeric_limits<std::uint16_t>::max()));
      } else if (arg == "--workers") {
        config.engine.workers = parse_u64("workers", value());
      } else if (arg == "--queue") {
        config.engine.queue_capacity = parse_u64("queue", value());
      } else if (arg == "--cache") {
        config.engine.plan_cache_capacity = parse_u64("cache", value());
      } else if (arg == "--quota") {
        config.engine.tenant_quota = parse_u64("quota", value());
      } else if (arg == "--max-payload") {
        config.max_payload = parse_u64("max-payload", value());
      } else if (arg == "--print-port") {
        print_port = true;
      } else if (arg == "--selftest-signal") {
        selftest_signal_ms =
            static_cast<long>(parse_u64("selftest-signal", value()));
      } else {
        reject(argv[0], "unknown option '" + arg + "'");
      }
    }
  } catch (const std::exception& e) {
    reject(argv[0], e.what());
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    net::Server server(config);
    std::printf("ptsbe_netd: listening on %s (workers=%zu queue=%zu "
                "plan-cache=%zu quota=%zu)\n",
                server.endpoint().c_str(), config.engine.workers,
                config.engine.queue_capacity,
                config.engine.plan_cache_capacity,
                config.engine.tenant_quota);
    if (print_port) {
      std::printf("port %u\n", static_cast<unsigned>(server.port()));
      std::fflush(stdout);
    }

    // Drain-path smoke: raise SIGTERM from a thread after a delay, so the
    // ctest exercise goes through the *real* handler + drain sequence.
    std::thread selftest;
    if (selftest_signal_ms >= 0) {
      selftest = std::thread([selftest_signal_ms] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(selftest_signal_ms));
        (void)std::raise(SIGTERM);
      });
    }

    // The signal handler only flips a flag (async-signal-safe); the drain
    // itself runs here on the main thread.
    while (g_shutdown == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("ptsbe_netd: signal received, draining\n");
    server.begin_drain();
    server.stop();
    if (selftest.joinable()) selftest.join();

    std::printf("ptsbe_netd: drained, final stats:\n%s\n",
                serve::stats_to_json(server.stats()).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptsbe_netd: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
