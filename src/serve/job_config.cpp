#include "ptsbe/serve/job_config.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string>

namespace ptsbe::serve {

namespace {

[[noreturn]] void bad_value(const char* what, std::string_view key,
                            std::string_view value) {
  throw JobConfigError("bad " + std::string(what) + " for '" +
                       std::string(key) + "': '" + std::string(value) + "'");
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

}  // namespace ptsbe::serve
