#ifndef FEDBENCH_WORKLOADS_H_
#define FEDBENCH_WORKLOADS_H_

// The benchmark's named federation workloads. Each is a complete experiment
// configuration plus the loop parameters the benchmark adds around it. The
// seed is the only input that varies between runs of one workload.

#include <cstdint>
#include <optional>
#include <string>

#include "core/experiment.h"

namespace fedbench {

struct Workload {
  std::string name;
  niid::ExperimentConfig config;  // config.rounds and config.eval_every apply
  /// Rounds between SaveCheckpoint calls (0: no checkpoints). The final
  /// round is always checkpointed when this is positive.
  int checkpoint_every = 0;
  /// time_to_target_s stops at the first evaluation at or above this.
  double target_accuracy = 0.0;
  /// final_accuracy below this fails the run.
  double accuracy_floor = 0.0;
  /// Analytic forward multiply-adds per sample of the workload's model
  /// (conv and linear layers only).
  double forward_macs_per_sample = 0.0;
};

/// The workload called `name`, seeded with `seed`; nullopt for an unknown
/// name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace fedbench

#endif  // FEDBENCH_WORKLOADS_H_
