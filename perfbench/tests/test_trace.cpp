// Self-tests of the benchmark's span recorder and derived statistics: the
// tail-percentile rule, self time with nested spans, lane accounting and
// the computed-bytes formula. Exits nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace {

int g_failures = 0;

bool near(double a, double b) { return std::fabs(a - b) < 1e-18; }

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

perfbench::Span span(const char* name, std::uint64_t id, std::uint64_t parent,
                     std::int64_t start, std::int64_t end,
                     std::uint32_t thread = 0) {
  perfbench::Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.trace = 1;
  s.thread = thread;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const perfbench::Tail t100 = tail_percentile(hundred);
  check(t100.percentile == 90 && t100.value == 90.0 && t100.beyond == 10,
        "100 samples: p90 = 90 with 10 beyond");

  std::vector<double> nine_hundred;
  for (int i = 900; i >= 1; --i) nine_hundred.push_back(i);  // unsorted
  const perfbench::Tail t900 = tail_percentile(nine_hundred);
  check(t900.percentile == 98 && t900.value == 882.0 && t900.beyond == 18,
        "900 samples: p98 (p99 would leave 9 beyond)");

  std::vector<double> eleven;
  for (int i = 0; i < 11; ++i) eleven.push_back(i);
  const perfbench::Tail t11 = tail_percentile(eleven);
  check(t11.percentile == 9 && t11.value == 0.0 && t11.beyond == 10,
        "11 samples: the minimum has exactly 10 beyond");

  const perfbench::Tail t5 = tail_percentile({3, 1, 2, 5, 4});
  check(t5.percentile == 100 && t5.value == 5.0 && t5.beyond == 0 &&
            t5.samples == 5,
        "10 or fewer samples: no percentile qualifies, max reported");

  // The rule holds at every size: >= 10 beyond, and p+1 would not qualify.
  for (std::size_t n = 11; n <= 2000; ++n) {
    std::vector<double> s;
    for (std::size_t i = 0; i < n; ++i) s.push_back(static_cast<double>(i));
    const perfbench::Tail t = tail_percentile(s);
    const std::size_t next_rank = ((t.percentile + 1) * n + 99) / 100;
    if (t.beyond < 10 || (t.percentile < 100 && n - next_rank >= 10)) {
      check(false, "tail rule at every sample count");
      break;
    }
  }
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "median of even count");
  check(perfbench::median({5, 1, 3}) == 3.0, "median of odd count");
}

void test_self_time_nested() {
  // A [0,100] has children B [10,40] and C [30,60] (overlapping) and E
  // [90,120] (clipped at A's end); B has child D [15,20].
  const std::vector<perfbench::Span> spans = {
      span("bench.run", 1, 0, 0, 100), span("be.execute", 2, 1, 10, 40),
      span("qec.decode", 3, 1, 30, 60), span("dataset.append", 4, 2, 15, 20),
      span("stats.table", 5, 1, 90, 120), span("stats.table", 6, 0, 200, 300)};
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  check(self[0] == 100 - 60, "parent self = duration - union of children");
  check(self[1] == 30 - 5, "child self excludes grandchild");
  check(self[2] == 30, "leaf self = duration");
  check(self[3] == 5, "grandchild self");
  check(self[4] == 30, "span running past its parent keeps its own time");

  const perfbench::Accounting acc = perfbench::account(spans);
  check(near(acc.lane_s, 100e-9), "lane time is the bench span");
  check(near(acc.unaccounted_s, 40e-9),
        "unaccounted = lane time outside layer spans on that thread");
  check(near(acc.layer_self_s.at("be"), 25e-9) &&
            near(acc.layer_self_s.at("bench"), 40e-9),
        "self time summed per layer");
  check(near(acc.layer_self_s.at("stats"), 30e-9),
        "a span outside every lane is not accounted");
}

void test_lanes_per_thread() {
  // Two concurrent lanes on different threads; only the thread's own layer
  // spans cover its lane.
  const std::vector<perfbench::Span> spans = {
      span("bench.client", 1, 0, 0, 100, 1),
      span("bench.client", 2, 0, 0, 100, 2),
      span("net.submit", 3, 1, 0, 90, 1),
      span("net.submit", 4, 2, 50, 100, 2)};
  const perfbench::Accounting acc = perfbench::account(spans);
  check(near(acc.lane_s, 200e-9), "two lanes");
  check(near(acc.unaccounted_s, 60e-9),
        "lane 1 misses 10, lane 2 misses 50");
  check(std::fabs(acc.unaccounted_frac() - 0.3) < 1e-12, "unaccounted share");
}

void test_recorder() {
  perfbench::Tracer off(false);
  { perfbench::Scope s(off, "bench.run"); }
  check(off.spans().empty(), "a disabled tracer records nothing");

  perfbench::Tracer tracer(true);
  {
    perfbench::Scope run(tracer, "bench.run");
    { perfbench::Scope child(tracer, "pts.sample"); }
    std::thread worker([&] {
      perfbench::Scope lane(tracer, "bench.client", &run, true);
      perfbench::Scope call(tracer, "net.submit");
    });
    worker.join();
  }
  const std::vector<perfbench::Span> spans = tracer.spans();
  check(spans.size() == 4, "four spans recorded");
  std::uint64_t run_id = 0, lane_id = 0;
  for (const perfbench::Span& s : spans) {
    if (s.name == "bench.run") run_id = s.id;
    if (s.name == "bench.client") lane_id = s.id;
  }
  for (const perfbench::Span& s : spans) {
    check(s.end_ns >= s.start_ns, "spans end after they start");
    if (s.name == "pts.sample")
      check(s.parent == run_id && s.trace == run_id,
            "nested span: parent is the innermost open scope");
    if (s.name == "bench.client")
      check(s.parent == run_id && s.trace == s.id,
            "cross-thread span: explicit parent, new trace");
    if (s.name == "net.submit")
      check(s.parent == lane_id && s.trace == lane_id,
            "span on a worker thread nests in that thread's scope");
  }
}

void test_computed_bytes() {
  check(perfbench::computed_bytes(3, 10, 4) == 3ULL * 10 * 16 * 32,
        "specs x gates x 2^n x 32 B");
  check(perfbench::computed_bytes(157, 200, 18) ==
            157ULL * 200 * 262144 * 32,
        "18-qubit bound does not overflow");
  check(perfbench::computed_bytes(0, 10, 4) == 0, "no specs, no bytes");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_self_time_nested();
  test_lanes_per_thread();
  test_recorder();
  test_computed_bytes();
  if (g_failures == 0) std::printf("perfbench self-tests: all passed\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
