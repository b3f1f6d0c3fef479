#include "ptsbe/serve/job_config.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace ptsbe::serve {

namespace {

[[noreturn]] void bad_value(const char* what, std::string_view key,
                            std::string_view value) {
  throw JobConfigError("bad " + std::string(what) + " for '" +
                       std::string(key) + "': '" + std::string(value) + "'");
}

void put(std::string& out, const char* key, std::string_view value) {
  out += key;
  out += '=';
  out += value;
  out += '\n';
}

void put_u64(std::string& out, const char* key, std::uint64_t value) {
  put(out, key, std::to_string(value));
}

// Hexfloat (%a) is exact for every finite IEEE-754 value: the config a job
// ran under must not drift through decimal formatting.
void put_f64(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  put(out, key, buf);
}

void put_flag(std::string& out, const char* key, bool value) {
  put(out, key, value ? "1" : "0");
}

}  // namespace

std::uint64_t parse_u64(std::string_view key, std::string_view value,
                        std::uint64_t max) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size() || out > max)
    bad_value("integer", key, value);
  return out;
}

double parse_f64(std::string_view key, std::string_view value) {
  // strtod, not from_chars: it reads the "0x1.8p-3" hexfloats the SUBMIT
  // encoder writes. It would skip leading blanks, so refuse them here.
  const std::string text(value);
  char* end = nullptr;
  const double out = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size())
    bad_value("number", key, value);
  return out;
}

bool parse_bool(std::string_view key, std::string_view value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  bad_value("flag (want 0|1|true|false)", key, value);
}

void set_job_field(JobRequest& job, std::string_view key,
                   std::string_view value) {
  pts::StrategyConfig& strategy = job.strategy_config;
  BackendConfig& backend = job.backend_config;
  if (key == "source") {
    job.source_name = value;
  } else if (key == "strategy") {
    job.strategy = value;
  } else if (key == "backend") {
    job.backend = value;
  } else if (key == "schedule") {
    try {
      job.schedule = be::schedule_from_string(std::string(value));
    } catch (const precondition_error& e) {
      throw JobConfigError(e.what());
    }
  } else if (key == "threads") {
    job.threads = parse_u64(key, value);
  } else if (key == "seed") {
    job.seed = parse_u64(key, value);
  } else if (key == "nsamples") {
    strategy.nsamples = parse_u64(key, value);
  } else if (key == "nshots") {
    strategy.nshots = parse_u64(key, value);
  } else if (key == "merge") {
    strategy.merge_duplicates = parse_bool(key, value);
  } else if (key == "p_min") {
    strategy.p_min = parse_f64(key, value);
  } else if (key == "p_max") {
    strategy.p_max = parse_f64(key, value);
  } else if (key == "cutoff") {
    strategy.probability_cutoff = parse_f64(key, value);
  } else if (key == "max_results") {
    strategy.max_results = parse_u64(key, value);
  } else if (key == "total_shots") {
    strategy.total_shots = parse_u64(key, value);
  } else if (key == "boost") {
    strategy.boost = parse_f64(key, value);
  } else if (key == "radius") {
    strategy.radius = static_cast<unsigned>(
        parse_u64(key, value, std::numeric_limits<unsigned>::max()));
  } else if (key == "fuse") {
    backend.fuse_gates = parse_bool(key, value);
  } else if (key == "mps_max_bond") {
    backend.mps.max_bond = parse_u64(key, value);
  } else if (key == "mps_trunc") {
    backend.mps.truncation_error = parse_f64(key, value);
  } else {
    throw JobConfigError("unknown job-config key '" + std::string(key) + "'");
  }
}

void write_job_fields(const JobRequest& job, std::string& out) {
  const pts::StrategyConfig& strategy = job.strategy_config;
  const BackendConfig& backend = job.backend_config;
  if (!job.source_name.empty()) put(out, "source", job.source_name);
  put(out, "strategy", job.strategy);
  put(out, "backend", job.backend);
  put(out, "schedule", be::to_string(job.schedule));
  put_u64(out, "threads", job.threads);
  put_u64(out, "seed", job.seed);
  put_u64(out, "nsamples", strategy.nsamples);
  put_u64(out, "nshots", strategy.nshots);
  put_flag(out, "merge", strategy.merge_duplicates);
  put_f64(out, "p_min", strategy.p_min);
  put_f64(out, "p_max", strategy.p_max);
  put_f64(out, "cutoff", strategy.probability_cutoff);
  put_u64(out, "max_results", strategy.max_results);
  put_u64(out, "total_shots", strategy.total_shots);
  put_f64(out, "boost", strategy.boost);
  put_u64(out, "radius", strategy.radius);
  put_flag(out, "fuse", backend.fuse_gates);
  put_u64(out, "mps_max_bond", backend.mps.max_bond);
  put_f64(out, "mps_trunc", backend.mps.truncation_error);
}

}  // namespace ptsbe::serve
