#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<std::uint32_t> g_next_thread{0};

std::uint32_t thread_index() {
  thread_local const std::uint32_t index = g_next_thread.fetch_add(1);
  return index;
}

thread_local Scope* t_innermost = nullptr;

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered(std::vector<Interval> intervals, std::int64_t lo,
                     std::int64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (const Interval& iv : intervals) {
    const std::int64_t begin = std::max(iv.first, cursor);
    if (iv.second > begin) {
      total += iv.second - begin;
      cursor = iv.second;
    }
  }
  return total;
}

/// Union of `intervals` as disjoint sorted intervals.
std::vector<Interval> merged(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (!out.empty() && iv.first <= out.back().second)
      out.back().second = std::max(out.back().second, iv.second);
    else
      out.push_back(iv);
  }
  return out;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ++next_id_;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Scope::Scope(Tracer& tracer, const char* name)
    : Scope(tracer, name, t_innermost) {}

Scope::Scope(Tracer& tracer, const char* name, const Scope* parent,
             bool new_trace) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  outer_ = t_innermost;
  t_innermost = this;
  span_.name = name;
  span_.id = tracer.next_id();
  span_.parent = parent != nullptr ? parent->span_.id : 0;
  span_.trace = (parent == nullptr || new_trace) ? span_.id
                                                 : parent->span_.trace;
  span_.thread = thread_index();
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  t_innermost = outer_;
  tracer_->record(std::move(span_));
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    const auto parent = index_of.find(s.parent);
    if (s.parent != 0 && parent != index_of.end())
      children[parent->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              covered(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

Accounting account(const std::vector<Span>& spans) {
  Accounting out;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  // A span is on a lane when it or one of its ancestors is a bench span.
  std::vector<int> on_lane(spans.size(), -1);
  const std::function<bool(std::size_t)> resolve = [&](std::size_t i) {
    if (on_lane[i] < 0) {
      const auto parent = index_of.find(spans[i].parent);
      on_lane[i] = layer_of(spans[i].name) == "bench" ||
                   (spans[i].parent != 0 && parent != index_of.end() &&
                    resolve(parent->second));
    }
    return on_lane[i] == 1;
  };
  std::map<std::uint32_t, std::vector<Interval>> lanes, inside;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!resolve(i)) continue;
    const Span& s = spans[i];
    const std::string layer = layer_of(s.name);
    out.layer_self_s[layer] += static_cast<double>(self[i]) * 1e-9;
    (layer == "bench" ? lanes : inside)[s.thread].emplace_back(s.start_ns,
                                                               s.end_ns);
  }
  for (auto& [thread, lane] : lanes) {
    for (const Interval& iv : merged(std::move(lane))) {
      const std::int64_t length = iv.second - iv.first;
      out.lane_s += static_cast<double>(length) * 1e-9;
      out.unaccounted_s +=
          static_cast<double>(length - covered(inside[thread], iv.first,
                                               iv.second)) *
          1e-9;
    }
  }
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail_percentile(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= 10) {
    tail.value = samples.back();
    return tail;
  }
  // Highest whole p with rank ceil(p·n/100) ≤ n − 10.
  tail.percentile = static_cast<unsigned>(100 * (n - 10) / n);
  const std::size_t rank =
      std::max<std::size_t>(1, (tail.percentile * n + 99) / 100);
  tail.value = samples[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

std::uint64_t computed_bytes(std::uint64_t specs, std::uint64_t gate_count,
                             unsigned qubits) {
  return specs * gate_count * (std::uint64_t{1} << qubits) * 32;
}

}  // namespace perfbench
