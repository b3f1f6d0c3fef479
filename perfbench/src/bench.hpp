#pragma once

/// \file bench.hpp
/// \brief Types shared by the benchmark's workloads and its report.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Set-up is timed this many times per run and setup_s is the median. The
/// repetitions are spread across the untraced pass, outside the timed
/// sections, so the median samples the host across the run rather than
/// within one burst of a few milliseconds. On a shared host one set-up
/// reads about 0.9 or about 1.4 ms depending on the moment, so the median
/// needs many samples to settle.
inline constexpr std::size_t kSetupRepeats = 45;

/// Command-line settings of one benchmark run.
struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;       ///< Tiny inputs: self-tests, not measurements.
  std::string workdir;      ///< Scratch directory for dataset files.
  std::size_t nproc = 1;
};

/// Operations attempted and failed.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Work done in one measured interval.
struct Window {
  double seconds = 0.0;
  double specs = 0.0;  ///< Trajectories executed (or received).
  double shots = 0.0;
  double jobs = 0.0;
};

/// Records read back in `seconds`.
struct Readback {
  double records = 0.0;
  double seconds = 0.0;
};

/// What a timed pass over a workload measured. Throughputs are medians of
/// per-window rates: one window per job for the serial local loops, so a
/// stalled job moves the figure by one sample; the whole pass for the
/// closed loop, whose job mix repeats per block of jobs rather than per
/// job. Checks run between jobs, outside the timed sections.
struct Pass {
  std::vector<double> job_s;  ///< Per-job latency.
  std::vector<Window> windows;
  std::vector<Readback> readbacks;
  double timed_s = 0.0;       ///< Sum of the timed sections.
  /// Peak resident set (MiB) of each timed job (served-wire: of each
  /// slice of the loop between two set-up repeats); peak_rss_mb is the
  /// median.
  std::vector<double> peak_rss_mib;
  std::uint64_t specs = 0;    ///< Totals over the pass.
  std::uint64_t shots = 0;
  /// Layer counters that spans cannot give (ratios, bytes, busy times).
  std::map<std::string, double> counters;
};

/// Result of one workload run.
struct Outcome {
  OpCount jobs, batches, checks;
  std::vector<double> setup_s;  ///< One sample per repeated set-up.
  Pass untraced;
  Pass traced;                  ///< Only with --trace 1.
  std::vector<Span> spans;      ///< Only with --trace 1.
  std::vector<Span> setup_spans;  ///< Only with --trace 1.
  /// Per-layer metrics set from the traced pass (unset ones read 0: the
  /// workload bypasses that layer).
  std::map<std::string, double> layers;
  std::vector<std::string> notes;  ///< Failed checks and diagnostics.

  /// Record a check; a failed one is noted and fails the run.
  void check(bool ok, const std::string& what);
};

Outcome run_prep_heavy(const Config& config);
Outcome run_qec_memory(const Config& config);
Outcome run_served_wire(const Config& config);

/// Deterministic 64-bit stream `stream` of `seed` (splitmix64 finaliser).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Whole file as bytes ("" when unreadable).
[[nodiscard]] std::string slurp(const std::string& path);

/// Returns the heap's free memory to the system (glibc `malloc_trim`; a
/// no-op elsewhere), so that the resident set holds live memory only.
void trim_heap();

/// Resets the process's peak resident set (VmHWM) to its current resident
/// set, so that peak_rss_mib() reads the peak since this call. Linux only;
/// elsewhere, and on kernels before 4.0, the peak is not reset.
void reset_peak_rss();

/// Peak resident set (VmHWM) in MiB since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mib();

/// `workdir/name`.
[[nodiscard]] std::string work_path(const Config& config,
                                    const std::string& name);

/// Brickwork `.ptq` job: `depth` layers of random single-qubit gates and
/// alternating CX/CZ bricks, depolarizing noise on both targets of every
/// CX/CZ (single-qubit runs between them stay fusable) and
/// bit-flip readout noise at half strength. `layout_seed` picks the gates,
/// `angle_seed` the rotation angles.
[[nodiscard]] std::string brickwork_ptq(unsigned n, unsigned depth,
                                        double noise,
                                        std::uint64_t layout_seed,
                                        std::uint64_t angle_seed);

/// Duration statistics of the spans named `name`.
struct SpanStats {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double median_s = 0.0;
};
[[nodiscard]] SpanStats span_stats(const std::vector<Span>& spans,
                                   const std::string& name);

/// Seconds since `start_ns` (a now_ns() reading).
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench
