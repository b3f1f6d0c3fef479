#pragma once

/// \file job_config.hpp
/// \brief The job-configuration grammar: one `key=value` entry sets one
/// `JobRequest` field.
///
/// Every job-config entry point parses through `set_job_field`, so each
/// accepts the same keys with the same checks: SUBMIT payload lines (see
/// ptsbe/net/protocol.hpp), `ptsbe_serve` job-file tokens and
/// `net_client_demo --KEY VALUE` flags, and `write_job_fields` is the one
/// writer (SUBMIT's encoder). The keys:
///
/// | key            | JobRequest field                          | value     |
/// |----------------|-------------------------------------------|-----------|
/// | `source`       | `source_name`                             | text      |
/// | `strategy`     | `strategy`                                | text      |
/// | `backend`      | `backend`                                 | text      |
/// | `schedule`     | `schedule`                                | schedule  |
/// | `threads`      | `threads`                                 | u64       |
/// | `seed`         | `seed`                                    | u64       |
/// | `nsamples`     | `strategy_config.nsamples`                | u64       |
/// | `nshots`       | `strategy_config.nshots`                  | u64       |
/// | `merge`        | `strategy_config.merge_duplicates`        | flag      |
/// | `p_min`        | `strategy_config.p_min`                   | f64       |
/// | `p_max`        | `strategy_config.p_max`                   | f64       |
/// | `cutoff`       | `strategy_config.probability_cutoff`      | f64       |
/// | `max_results`  | `strategy_config.max_results`             | u64       |
/// | `total_shots`  | `strategy_config.total_shots`             | u64       |
/// | `boost`        | `strategy_config.boost`                   | f64       |
/// | `radius`       | `strategy_config.radius`                  | u32       |
/// | `fuse`         | `backend_config.fuse_gates`               | flag      |
/// | `mps_max_bond` | `backend_config.mps.max_bond`             | u64       |
/// | `mps_trunc`    | `backend_config.mps.truncation_error`     | f64       |
///
/// Numbers are strict: the whole value must be the number (`abc`, `12x`,
/// `-1` and the empty string are errors, never a silent 0). A flag is
/// `0|1|true|false`; a schedule is a `be::schedule_from_string` name.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "ptsbe/common/error.hpp"
#include "ptsbe/serve/engine.hpp"

namespace ptsbe::serve {

/// An unknown job-config key, or a value that does not parse. The message
/// names the key and the value.
class JobConfigError : public runtime_failure {
 public:
  using runtime_failure::runtime_failure;
};

/// A decimal integer in [0, max].
/// \throws JobConfigError otherwise.
[[nodiscard]] std::uint64_t parse_u64(
    std::string_view key, std::string_view value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// A `strtod` number (decimal or hexfloat) that spans all of `value`.
/// \throws JobConfigError otherwise.
[[nodiscard]] double parse_f64(std::string_view key, std::string_view value);

/// `0|1|true|false`. \throws JobConfigError otherwise.
[[nodiscard]] bool parse_bool(std::string_view key, std::string_view value);

/// Set the field `key` names (see the table above) from `value`.
/// \throws JobConfigError for unknown keys and malformed values.
void set_job_field(JobRequest& job, std::string_view key,
                   std::string_view value);

/// Append every key of the table above as a `key=value\n` line, in table
/// order, spelled so `set_job_field` reads each back exactly: u64 in
/// decimal, f64 as hexfloat (`%a`), flags as `0|1`. `source` is omitted
/// when empty. The caller checks text fields for newlines.
void write_job_fields(const JobRequest& job, std::string& out);

}  // namespace ptsbe::serve
