#pragma once

/// \file trace.hpp
/// \brief The benchmark's span recorder and the statistics derived from it.
///
/// Spans are recorded by the benchmark around its own calls into the
/// library's public functions; nothing inside the library is instrumented.
/// A span's name is `<layer>.<call>` (e.g. `be.execute`); the layer is the
/// part before the first dot. Spans of the `bench` layer are the
/// benchmark's own bookkeeping: each thread that calls into the library
/// runs inside one `bench` lane span, and lane time not covered by a layer
/// span is the unaccounted share of the traced wall time.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// One recorded call. `parent` is 0 for a root; spans of one job or run
/// share `trace` (the id of the span that opened the trace).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::uint32_t thread = 0;  ///< Small per-thread index (lane identity).
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store. Disabled tracers record nothing, so the untraced
/// run pays one branch per would-be span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t next_id();
  void record(Span span);
  /// Every span recorded so far (copied under the lock).
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 0;  ///< Guarded by mutex_.
  std::vector<Span> spans_;    ///< Guarded by mutex_.
};

/// RAII span. By default the parent is the innermost open Scope of the
/// calling thread; pass `parent` to link a span opened on another thread.
/// `new_trace` starts a trace (a job) whose id is this span's id.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name);
  Scope(Tracer& tracer, const char* name, const Scope* parent,
        bool new_trace = false);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_ = nullptr;  ///< Null when tracing is off.
  Scope* outer_ = nullptr;    ///< Thread's previously innermost scope.
  Span span_;
};

/// Layer of a span name: the text before the first '.'.
[[nodiscard]] std::string layer_of(const std::string& name);

/// Self time of every span, in nanoseconds: its duration minus the part of
/// its interval covered by the union of its children (children are clipped
/// to the parent's interval). Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Accounting of traced wall time by layer. Only spans on a lane count: a
/// `bench` span and its descendants (checks run outside lanes).
struct Accounting {
  /// Self seconds per layer, summed over spans (lane-seconds when lanes
  /// run concurrently).
  std::map<std::string, double> layer_self_s;
  /// Total lane time: per thread, the union of its `bench` spans.
  double lane_s = 0.0;
  /// Lane time during which the lane's thread was inside no layer span.
  double unaccounted_s = 0.0;
  [[nodiscard]] double unaccounted_frac() const noexcept {
    return lane_s > 0.0 ? unaccounted_s / lane_s : 0.0;
  }
};
[[nodiscard]] Accounting account(const std::vector<Span>& spans);

/// Median (mean of the two middle values for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// The highest whole percentile that has at least ten samples beyond it
/// (nearest-rank definition), with its sample counts.
struct Tail {
  double value = 0.0;
  unsigned percentile = 100;
  std::size_t beyond = 0;   ///< Samples ranked above the percentile.
  std::size_t samples = 0;
};
/// With ten or fewer samples no percentile qualifies; the maximum is
/// returned as percentile 100 with 0 samples beyond.
[[nodiscard]] Tail tail_percentile(std::vector<double> samples);

/// Bytes an amplitude-vector preparation computes over: every gate sweep
/// reads and writes each of the 2^n complex<double> amplitudes (16 B each
/// way). This is the independent-schedule bound: a shared-prefix schedule
/// sweeps shared prefixes once and so touches fewer bytes.
[[nodiscard]] std::uint64_t computed_bytes(std::uint64_t specs,
                                           std::uint64_t gate_count,
                                           unsigned qubits);

}  // namespace perfbench
