// net_client_demo — the ptsbe::net wire protocol end to end from the
// client side: submit a `.ptq` circuit to a daemon, stream the BATCH
// frames back, reconstruct the RunResult, and cross-check it against a
// local Pipeline::run with the same seed (byte-for-byte identical
// records — the protocol's core contract).
//
//   ptsbe_netd --port 7411 &            # somewhere
//   net_client_demo --port 7411 examples/circuits/bell.ptq
//
//   net_client_demo --self-serve examples/circuits/bell.ptq
//       hermetic mode: spins up an in-process net::Server on an ephemeral
//       loopback port and talks to itself — the ctest smoke path.
//
// Every other `--KEY VALUE` pair is a job-config entry, with the keys and
// checks of ptsbe/serve/job_config.hpp (the grammar SUBMIT frames and
// ptsbe_serve job files use): `--strategy band --p_min 1e-7 --nshots 64`.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/net/client.hpp"
#include "ptsbe/net/server.hpp"
#include "ptsbe/serve/job_config.hpp"

namespace {

void usage(std::FILE* os, const char* argv0) {
  std::fprintf(os,
      "usage: %s [options] <circuit.ptq>\n"
      "  --host HOST              daemon address [127.0.0.1]\n"
      "  --port N                 daemon port\n"
      "  --self-serve             run an in-process server instead\n"
      "  --tenant NAME            tenant label [demo]\n"
      "  --priority normal|high   admission lane [normal]\n"
      "  --connect-timeout-ms MS  dead-endpoint bound [5000]\n"
      "  --stats                  also fetch the server's stats JSON\n"
      "  --KEY VALUE              any job-config key (strategy, backend,\n"
      "                           seed, nsamples, nshots, p_min, ...; see\n"
      "                           ptsbe/serve/job_config.hpp)\n"
      "                           [seed 1234, nsamples 64, nshots 256]\n",
      argv0);
}

[[noreturn]] void reject(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "error: %s\n\n", what.c_str());
  usage(stderr, argv0);
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptsbe;

  net::ClientConfig client_config;
  serve::JobRequest job;
  job.tenant = "demo";
  job.seed = 1234;
  job.strategy_config.nsamples = 64;
  job.strategy_config.nshots = 256;
  bool self_serve = false;
  bool want_stats = false;
  bool port_given = false;
  std::string circuit_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) reject(argv[0], arg + " needs a value");
      return argv[++i];
    };
    // Strict numbers: a malformed value is a usage error naming both.
    const auto u64 = [&](std::uint64_t max) {
      try {
        return serve::parse_u64(arg, value(), max);
      } catch (const serve::JobConfigError& e) {
        reject(argv[0], e.what());
      }
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--host") {
      client_config.host = value();
    } else if (arg == "--port") {
      client_config.port = static_cast<std::uint16_t>(
          u64(std::numeric_limits<std::uint16_t>::max()));
      port_given = true;
    } else if (arg == "--self-serve") {
      self_serve = true;
    } else if (arg == "--tenant") {
      job.tenant = value();
    } else if (arg == "--priority") {
      try {
        job.priority = serve::priority_from_string(value());
      } catch (const std::exception& e) {
        reject(argv[0], e.what());
      }
    } else if (arg == "--connect-timeout-ms") {
      client_config.connect_timeout_ms =
          static_cast<int>(u64(std::numeric_limits<int>::max()));
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg.starts_with("--")) {
      try {
        serve::set_job_field(job, arg.substr(2), value());
      } catch (const serve::JobConfigError& e) {
        reject(argv[0], e.what());
      }
    } else if (!arg.empty() && arg[0] == '-') {
      reject(argv[0], "unknown option '" + arg + "'");
    } else if (circuit_path.empty()) {
      circuit_path = arg;
    } else {
      reject(argv[0], "more than one circuit given");
    }
  }
  if (circuit_path.empty()) reject(argv[0], "no circuit given");
  if (!self_serve && !port_given) {
    reject(argv[0], "need --port (or --self-serve)");
  }

  try {
    job.circuit_text = read_file(circuit_path);
    job.source_name = circuit_path;

    // Hermetic mode: serve ourselves on an ephemeral loopback port.
    std::unique_ptr<net::Server> server;
    if (self_serve) {
      net::ServerConfig server_config;
      server_config.engine.workers = 2;
      server = std::make_unique<net::Server>(server_config);
      client_config.host = "127.0.0.1";
      client_config.port = server->port();
      std::printf("self-serve: %s\n", server->endpoint().c_str());
    }

    net::Client client(client_config);
    const net::RemoteRun remote = client.submit(job);
    std::printf(
        "job %llu: strategy=%s backend=%s weighting=%s specs=%zu "
        "shots=%llu plan-cache=%s\n",
        static_cast<unsigned long long>(remote.job_id),
        remote.run.strategy.c_str(), remote.run.backend.c_str(),
        net::weighting_to_string(remote.run.weighting).c_str(),
        remote.run.num_specs,
        static_cast<unsigned long long>(remote.run.result.total_shots()),
        remote.plan_cache_hit ? "hit" : "miss");

    // The protocol contract, checked live: the served records equal a
    // local run with the same config, bit for bit.
    const RunResult local =
        Pipeline(io::parse_circuit(job.circuit_text, job.source_name))
            .strategy(job.strategy, job.strategy_config)
            .backend(job.backend, job.backend_config)
            .schedule(job.schedule)
            .threads(job.threads)
            .seed(job.seed)
            .run();
    bool identical = local.result.batches.size() ==
                     remote.run.result.batches.size();
    for (std::size_t i = 0; identical && i < local.result.batches.size();
         ++i) {
      identical = local.result.batches[i].records ==
                  remote.run.result.batches[i].records;
    }
    std::printf("byte-identity vs local run: %s\n",
                identical ? "identical" : "MISMATCH");

    if (want_stats) {
      std::printf("server stats: %s\n", client.stats_json().c_str());
    }
    if (server) server->stop();
    return identical ? 0 : 1;
  } catch (const net::RemoteError& e) {
    std::fprintf(stderr, "remote error [%s]", e.code().c_str());
    if (e.line() != 0) {
      std::fprintf(stderr, " at %zu:%zu", e.line(), e.column());
    }
    std::fprintf(stderr, ": %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
