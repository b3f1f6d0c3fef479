// Generate a labelled magic-state-distillation dataset — the paper's target
// application: training data for ML-based QEC decoders, where each shot
// carries its trajectory's exact error content as a supervision label
// (information physical hardware cannot provide).
//
// Workload: the bare 5-qubit 5→1 distillation circuit (Fig. 3 of the paper)
// with depolarizing input noise. PTS pre-samples error patterns, BE collects
// shots in bulk, and the dataset is written in both CSV and binary form.
// Post-selection statistics (syndrome-accept rate per error weight) are
// printed as a sanity check of the distillation behaviour.

#include <cstdio>
#include <map>

#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/qec/distillation.hpp"
#include "ptsbe/serve/job_config.hpp"

int main(int argc, char** argv) {
  using namespace ptsbe;
  // usage: msd_dataset_generation [nsamples [nshots]]
  std::size_t nsamples = 4000;
  std::uint64_t nshots = 2000;
  try {
    if (argc > 1) nsamples = serve::parse_u64("nsamples", argv[1]);
    if (argc > 2) nshots = serve::parse_u64("nshots", argv[2]);
  } catch (const serve::JobConfigError& e) {
    std::fprintf(stderr, "error: %s\nusage: %s [nsamples [nshots]]\n",
                 e.what(), argv[0]);
    return 2;
  }

  // The distillation circuit with noisy magic-state inputs: depolarizing
  // noise after each input preparation gate.
  Circuit circuit = qec::bare_msd_circuit();
  NoiseModel noise;
  noise.add_gate_noise("p", channels::depolarizing(0.03));  // after T preps
  const NoisyCircuit noisy = noise.apply(circuit);
  std::printf("MSD program: %u qubits, %zu gates, %zu noise sites\n",
              circuit.num_qubits(), circuit.gate_count(), noisy.num_sites());

  RngStream rng(2025);
  pts::Options opt;
  opt.nsamples = nsamples;
  opt.nshots = nshots;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);

  be::Options exec;
  const be::Result result = be::execute(noisy, specs, exec);
  std::printf("dataset: %zu trajectories, %llu labelled shots (%.2fs)\n",
              result.batches.size(),
              static_cast<unsigned long long>(result.total_shots()),
              result.prepare_seconds + result.sample_seconds);

  // Distillation acceptance vs error weight — the kind of conditional
  // statistic the provenance labels make trivial to compute.
  std::map<std::size_t, std::pair<double, double>> by_weight;  // accept, total
  for (const auto& batch : result.batches) {
    auto& [acc, tot] = by_weight[batch.spec.error_weight()];
    for (auto record : batch.records) {
      acc += qec::bare_msd_accept(record) ? 1.0 : 0.0;
      tot += 1.0;
    }
  }
  std::printf("\nerrors-in-trajectory  shots      accept-rate\n");
  for (const auto& [w, at] : by_weight)
    std::printf("  %zu                   %9.0f  %.4f\n", w, at.second,
                at.first / at.second);

  dataset::write_csv("/tmp/msd_dataset.csv", result);
  dataset::write_binary("/tmp/msd_dataset.bin", result);
  std::printf("\nwrote /tmp/msd_dataset.csv and /tmp/msd_dataset.bin\n");

  // Round-trip check.
  const auto loaded = dataset::read_binary("/tmp/msd_dataset.bin");
  std::printf("round-trip: %zu batches, %llu shots ok\n", loaded.batches.size(),
              static_cast<unsigned long long>(loaded.total_shots()));
  return 0;
}
