#include <fstream>
#include <sstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench.hpp"
#include "ptsbe/circuit/circuit.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/noise/noise_model.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  checks.add(ok);
  if (!ok) notes.push_back("check failed: " + what);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

std::string work_path(const Config& config, const std::string& name) {
  return config.workdir + "/" + name;
}

SpanStats span_stats(const std::vector<Span>& spans, const std::string& name) {
  SpanStats out;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::vector<double> durations;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    durations.push_back(d * 1e-9);
    out.total_s += d * 1e-9;
    out.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  out.count = durations.size();
  out.median_s = median(std::move(durations));
  return out;
}

std::string brickwork_ptq(unsigned n, unsigned depth, double noise,
                          std::uint64_t layout_seed, std::uint64_t angle_seed) {
  using namespace ptsbe;
  RngStream layout(layout_seed);
  RngStream angles(angle_seed);
  Circuit c(n);
  for (unsigned d = 0; d < depth; ++d) {
    for (unsigned q = 0; q < n; ++q) {
      switch (layout.uniform_index(4)) {
        case 0: c.h(q); break;
        case 1: c.t(q); break;
        case 2: c.rx(q, angles.uniform(0.1, 3.0)); break;
        default: c.ry(q, angles.uniform(0.1, 3.0)); break;
      }
    }
    for (unsigned q = d % 2; q + 1 < n; q += 2)
      (d % 4 < 2) ? c.cx(q, q + 1) : c.cz(q, q + 1);
  }
  c.measure_all();
  NoiseModel model;
  model.add_gate_noise("cx", channels::depolarizing(noise));
  model.add_gate_noise("cz", channels::depolarizing(noise));
  model.add_measurement_noise(channels::bit_flip(noise / 2));
  return io::write_circuit(model.apply(c));
}

}  // namespace perfbench
