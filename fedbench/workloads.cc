#include "workloads.h"

namespace fedbench {

namespace {

using niid::PartitionStrategy;

/// Multiply-adds of one SimpleCnn forward pass per sample: conv5 -> pool2 ->
/// conv5 -> pool2 -> 120 -> 84 -> classes (nn/models/simple_cnn.cc).
double SimpleCnnMacs(int channels, int side, int classes) {
  const double c1 = side - 4;
  const double p1 = static_cast<int>(c1) / 2;
  const double c2 = p1 - 4;
  const double p2 = static_cast<int>(c2) / 2;
  const double flat = 16 * p2 * p2;
  return 6.0 * channels * 25 * c1 * c1 + 16.0 * 6 * 25 * c2 * c2 +
         flat * 120 + 120.0 * 84 + 84.0 * classes;
}

/// Multiply-adds of one TabularMlp forward pass per sample: features -> 32 ->
/// 16 -> 8 -> classes (nn/models/tabular_mlp.cc).
double TabularMlpMacs(int features, int classes) {
  return features * 32.0 + 32.0 * 16 + 16.0 * 8 + 8.0 * classes;
}

/// Seed of the federation itself: model initialization, party sampling and
/// the party, fault and scenario streams. Fixed per benchmark, so the
/// workload seed varies only the generated data (and with it the partition):
/// with the federation seed varying too, the round at which accuracy leaves
/// chance level moves by a factor of three between seeds, and so would
/// time_to_target_s.
constexpr uint64_t kFederationSeed = 1;

/// Shared quick-profile settings: one local epoch, 4x the paper's learning
/// rate (the repo's quick-profile compensation for far fewer SGD steps).
niid::ExperimentConfig Base(uint64_t seed) {
  niid::ExperimentConfig config;
  config.seed = kFederationSeed;
  config.catalog.seed = seed;
  config.trials = 1;
  config.local.local_epochs = 1;
  config.lr_scale = 4.0f;
  config.partition.strategy = PartitionStrategy::kLabelDirichlet;
  config.partition.beta = 0.5;
  return config;
}

/// The paper's cross-silo cell: CIFAR-10-shaped images, SimpleCnn, FedAvg
/// over p~Dir(0.5), half of 20 parties per round, dense engine.
Workload SiloCifar(uint64_t seed) {
  Workload w;
  w.name = "silo_cifar";
  niid::ExperimentConfig& c = w.config;
  c = Base(seed);
  c.dataset = "cifar10";
  c.catalog.size_factor = 0.04;  // 2,000 train
  c.catalog.min_test_size = 2000;
  c.partition.num_parties = 20;
  c.algorithm = "fedavg";
  c.local.batch_size = 16;
  c.sample_fraction = 0.5;
  c.rounds = 30;
  // Accuracy first reaches 0.8 between rounds 11 and 16 depending on the
  // seed, and after 10 / 20 rounds it was at most 0.80 / at least 0.85 on
  // every sizing seed: evaluating every 10 rounds puts each seed's crossing
  // of 0.83 at round 20, so time_to_target_s measures the system rather than
  // the seed. The test set is five times the paper-scaled 400, which keeps
  // evaluation a real share of the loop.
  c.eval_every = 10;
  c.num_threads = 2;
  w.target_accuracy = 0.83;
  w.accuracy_floor = 0.50;
  w.forward_macs_per_sample = SimpleCnnMacs(3, 32, 10);
  return w;
}

/// The cross-device cell: 100k parties on the sparse engine, 100 sampled
/// per round, each a 32-sample overlapping draw from a covtype-shaped pool.
Workload DeviceCovtype(uint64_t seed) {
  Workload w;
  w.name = "device_covtype";
  niid::ExperimentConfig& c = w.config;
  c = Base(seed);
  c.dataset = "covtype";
  c.catalog.size_factor = 0.5;  // ~218k train / ~73k test rows
  c.catalog.max_train_size = 0;
  c.partition.num_parties = 100000;
  c.partition.cross_device_samples_per_party = 32;
  c.sparse_parties = true;
  c.sample_fraction = 100.0 / 100000.0;
  c.algorithm = "fedavg";
  c.local.batch_size = 16;
  c.lr_scale = 16.0f;
  // A process then takes about 5 s, so a run of the benchmark holds about
  // nine cold processes.
  c.rounds = 600;
  c.eval_every = 200;
  c.num_threads = 1;
  w.target_accuracy = 0.60;
  w.accuracy_floor = 0.55;
  w.forward_macs_per_sample = TabularMlpMacs(54, 2);
  return w;
}

/// The adversarial path: FedAvg under 20% sign-flip adversaries, int8
/// uplink with error feedback, coordinate-wise median, drop and straggle
/// faults with quorum 5, and a checkpoint every 10 rounds.
Workload RobustMnist(uint64_t seed) {
  Workload w;
  w.name = "robust_mnist";
  niid::ExperimentConfig& c = w.config;
  c = Base(seed);
  c.dataset = "mnist";
  c.catalog.size_factor = 0.04;  // 2,400 train
  c.catalog.min_test_size = 1000;
  c.partition.num_parties = 50;
  // Not SCAFFOLD: with this stack its parties start uploading non-finite
  // deltas at this size (by round 20 with the attackers, within 40 without
  // them), and a checkpoint written after that cannot be loaded back
  // (README.md).
  c.algorithm = "fedavg";
  // Six SGD steps per party and round (48 samples per party on average), so
  // accuracy settles within the 30 rounds on every seed.
  c.local.batch_size = 8;
  c.sample_fraction = 0.5;
  c.scenario.adversary_fraction = 0.2;
  c.scenario.attack = niid::AttackKind::kSignFlip;
  c.scenario.attack_scale = 5.0;
  c.compression.codec = niid::CodecKind::kInt8;
  c.compression.error_feedback = true;
  c.robust.aggregator = niid::AggregatorKind::kMedian;
  c.faults.drop_rate = 0.1;
  c.faults.straggle_rate = 0.2;
  c.min_aggregate_clients = 5;
  c.rounds = 30;
  // After 10 / 20 rounds accuracy was at most 0.82 / at least 0.93 on the 26
  // seeds tried: evaluating every 10 rounds lands each seed's crossing of
  // 0.87 at round 20, so time_to_target_s measures the system, not the seed.
  c.eval_every = 10;
  c.num_threads = 2;
  w.checkpoint_every = 10;
  w.target_accuracy = 0.87;
  w.accuracy_floor = 0.95;
  w.forward_macs_per_sample = SimpleCnnMacs(1, 28, 10);
  return w;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "silo_cifar") return SiloCifar(seed);
  if (name == "device_covtype") return DeviceCovtype(seed);
  if (name == "robust_mnist") return RobustMnist(seed);
  return std::nullopt;
}

}  // namespace fedbench
