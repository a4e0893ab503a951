// One federation run of one benchmark workload, in a fresh process.
//
//   fedbench --workload=NAME --seed=N --mode=timed|traced [--rounds=N]
//            [--out_dir=DIR]
//
// timed:  builds the server once through BuildServerForTrial and runs the
//         closed round loop untraced.
// traced: assembles the same server from public pieces with the trace
//         wrappers in place, runs the same loop, replays the update codec and
//         the robust rule on copies of each round's RunClient outputs, and
//         derives the per-layer metrics from the spans.
//
// Both modes print the run's plan (workload, rounds, build) as a JSON object
// on the first line of stdout, before any work, and the result as one JSON
// object on the last line; the benchmark runner (run.py) turns them into
// metrics and checks. A run that aborts has still announced its rounds.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "data/transforms.h"
#include "layers.h"
#include "partition/lazy_index.h"
#include "trace.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef FEDBENCH_BUILD_TYPE
#define FEDBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FEDBENCH_COMPILER
#define FEDBENCH_COMPILER "unknown"
#endif

namespace fedbench {
namespace {

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a over the state's bytes: equal digests mean bit-identical states.
std::string Digest(const niid::StateVector& state) {
  uint64_t hash = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(state.data());
  for (size_t i = 0; i < state.size() * sizeof(float); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ULL;
  }
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << hash << ":"
      << std::dec << state.size();
  return out.str();
}

/// Minimal JSON object writer for the one-line result.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    out_ << (empty_ ? "{" : ",") << '"' << key << "\":" << raw;
    empty_ = false;
    return *this;
  }
  JsonObject& Number(const std::string& key, double value) {
    std::ostringstream v;
    v << std::setprecision(17) << value;
    return Add(key, v.str());
  }
  JsonObject& Text(const std::string& key, const std::string& value) {
    return Add(key, '"' + value + '"');
  }
  JsonObject& Flag(const std::string& key, bool value) {
    return Add(key, value ? "true" : "false");
  }
  std::string str() const { return out_.str() + (empty_ ? "{}" : "}"); }

 private:
  std::ostringstream out_;
  bool empty_ = true;
};

std::string NumberArray(const std::vector<double>& values) {
  std::ostringstream out;
  out << std::setprecision(17) << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i ? "," : "") << values[i];
  }
  out << "]";
  return out.str();
}

/// The ServerConfig BuildServerForTrial derives for trial 0 (core/runner.cc).
niid::ServerConfig ServerConfigFor(const niid::ExperimentConfig& config,
                                   const niid::Dataset& train) {
  niid::ServerConfig server;
  server.sample_fraction = config.sample_fraction;
  server.seed = config.seed;
  server.num_threads = config.num_threads;
  server.dp = config.dp;
  server.min_local_epochs = config.min_local_epochs;
  server.skew_aware_sampling = config.skew_aware_sampling;
  server.faults = config.faults;
  server.min_aggregate_clients = config.min_aggregate_clients;
  server.max_resample_retries = config.max_resample_retries;
  server.max_update_norm = config.max_update_norm;
  server.compression = config.compression;
  server.num_shards = config.num_shards;
  server.scenario = config.scenario;
  if (server.scenario.num_classes == 0) {
    server.scenario.num_classes = train.num_classes;
  }
  server.robust = config.robust;
  return server;
}

/// The traced run's update codec and robust rule replays, fed by copies of
/// each round's RunClient outputs.
struct Replay {
  UpdateLog log;
  const niid::UpdateCodec* codec = nullptr;
  std::unique_ptr<niid::RobustAggregator> robust;
  std::unique_ptr<niid::ThreadPool> pool;
  std::map<int, niid::StateVector> residuals;
  niid::CodecScratch scratch;
  niid::EncodedDelta payload;
  std::vector<niid::LocalUpdate> inputs;
  int decode_failures = 0;

  void Round(int round, Tracer* tracer) {
    size_t count = 0;
    const std::vector<niid::LocalUpdate>& updates = log.SortRound(&count);
    inputs.resize(count);
    for (size_t i = 0; i < count; ++i) {
      const niid::LocalUpdate& update = updates[i];
      inputs[i] = update;
      if (codec == nullptr) continue;
      niid::StateVector* residual = codec->config().error_feedback
                                        ? &residuals[update.client_id]
                                        : nullptr;
      {
        ScopedSpan span(tracer, SpanKind::kEncode);
        codec->Encode(round, update.client_id, update.delta, residual,
                      scratch, payload);
        span.set_arg(static_cast<int64_t>(payload.bytes.size()));
      }
      niid::Status decoded;
      {
        ScopedSpan span(tracer, SpanKind::kDecode);
        decoded = codec->Decode(round, update.client_id, payload,
                                inputs[i].delta, scratch);
      }
      if (!decoded.ok()) ++decode_failures;
    }
    if (robust != nullptr && count > 0) {
      ScopedSpan span(tracer, SpanKind::kRobustApply,
                      static_cast<int64_t>(count));
      robust->Apply(inputs, pool.get());
    }
    log.Clear();
  }
};

struct LoopResult {
  std::vector<double> round_ms;
  std::vector<double> eval_rounds;
  std::vector<double> eval_accuracy;
  double loop_s = 0.0;
  double time_to_target_s = -1.0;  // -1: target never reached
  double cpu_s = 0.0;
  double replay_s = 0.0;
  double final_accuracy = 0.0;
  int failed_rounds = 0;            // quorum missed
  int conservation_violations = 0;  // outcome counts that do not add up
  int checkpoints = 0;
  bool checkpoints_ok = true;
  std::map<std::string, int64_t> counts;
};

/// The closed loop: RunRound, then EvaluateGlobal when due, then
/// SaveCheckpoint when due; round r+1 starts once round r has finished.
LoopResult RunLoop(niid::FederatedServer& server, const niid::Dataset& test,
                   const Workload& workload, const std::string& checkpoint,
                   Tracer* tracer, Replay* replay) {
  const niid::ExperimentConfig& config = workload.config;
  niid::LocalTrainOptions local = config.local;
  const float base_lr = niid::ResolveLearningRate(config);
  LoopResult result;
  result.round_ms.reserve(static_cast<size_t>(config.rounds));
  int64_t replay_ns = 0;
  const double cpu_start = CpuSeconds();
  const int64_t loop_start = NowNs();
  for (int round = 0; round < config.rounds; ++round) {
    local.learning_rate =
        niid::ScheduledLearningRate(config, base_lr, round, config.rounds);
    if (tracer != nullptr) tracer->set_round(round);
    const int64_t round_start = NowNs();
    niid::RoundStats stats;
    {
      ScopedSpan span(tracer, SpanKind::kRound, round, /*root=*/true);
      stats = server.RunRound(local);
    }
    result.round_ms.push_back(static_cast<double>(NowNs() - round_start) /
                              1e6);
    if (replay != nullptr) {
      const int64_t replay_start = NowNs();
      replay->Round(round, tracer);
      replay_ns += NowNs() - replay_start;
    }
    if ((round + 1) % config.eval_every == 0 || round + 1 == config.rounds) {
      niid::EvalResult eval;
      {
        ScopedSpan span(tracer, SpanKind::kEval, round, /*root=*/true);
        eval = server.EvaluateGlobal(test);
      }
      result.eval_rounds.push_back(round + 1);
      result.eval_accuracy.push_back(eval.accuracy);
      result.final_accuracy = eval.accuracy;
      if (result.time_to_target_s < 0 &&
          eval.accuracy >= workload.target_accuracy) {
        result.time_to_target_s =
            static_cast<double>(NowNs() - loop_start - replay_ns) / 1e9;
      }
    }
    if (workload.checkpoint_every > 0 &&
        ((round + 1) % workload.checkpoint_every == 0 ||
         round + 1 == config.rounds)) {
      ScopedSpan span(tracer, SpanKind::kCheckpointSave, round,
                      /*root=*/true);
      result.checkpoints_ok &= server.SaveCheckpoint(checkpoint).ok();
      ++result.checkpoints;
    }

    const int sampled = static_cast<int>(stats.sampled_clients.size());
    auto& counts = result.counts;
    counts["sampled"] += sampled;
    counts["unavailable"] += stats.unavailable;
    counts["dropped"] += stats.dropped;
    counts["crashed"] += stats.crashed;
    counts["straggled"] += stats.straggled;
    counts["rejected"] += stats.rejected;
    counts["poisoned"] += stats.poisoned;
    counts["aggregated"] += stats.aggregated;
    counts["resample_retries"] += stats.resample_retries;
    counts["bytes_uplink"] += stats.bytes_uplink;
    counts["trained"] += sampled - stats.dropped - stats.unavailable;
    if (!stats.quorum_met) ++result.failed_rounds;
    if (stats.resample_retries == 0 && stats.quorum_met &&
        sampled != stats.unavailable + stats.dropped + stats.crashed +
                       stats.rejected + stats.aggregated) {
      ++result.conservation_violations;
    }
  }
  result.loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
  result.cpu_s = CpuSeconds() - cpu_start;
  result.replay_s = static_cast<double>(replay_ns) / 1e9;
  return result;
}

/// The traced run's server: BuildServerForTrial's trial-0 assembly
/// (core/runner.cc), from the same public pieces, with the model factory,
/// the algorithm and the party source wrapped.
std::unique_ptr<niid::FederatedServer> BuildTracedServer(
    const niid::ExperimentConfig& config, Tracer* tracer, UpdateLog* log,
    niid::Dataset* out_test) {
  niid::FederatedDataset data;
  {
    ScopedSpan span(tracer, SpanKind::kGenerate);
    auto data_or = niid::MakeCatalogDataset(config.dataset, config.catalog);
    NIID_CHECK(data_or.ok()) << data_or.status().ToString();
    data = std::move(*data_or);
    if (config.standardize_tabular && !data.train.is_image()) {
      const niid::FeatureStats stats = niid::ComputeFeatureStats(data.train);
      niid::StandardizeFeatures(data.train, stats);
      niid::StandardizeFeatures(data.test, stats);
    }
  }
  niid::ModelSpec spec = niid::DefaultModelSpec(data.train, config.model);
  spec.resnet_blocks_per_stage = config.resnet_blocks_per_stage;
  const niid::ModelFactory factory =
      TracedFactory(niid::MakeModelFactory(spec), tracer);
  niid::PartitionConfig partition_config = config.partition;
  partition_config.seed = config.seed;
  auto algorithm_or = niid::CreateAlgorithm(config.algorithm, config.algo);
  NIID_CHECK(algorithm_or.ok()) << algorithm_or.status().ToString();
  auto algorithm =
      std::make_unique<TracedAlgorithm>(std::move(*algorithm_or), tracer, log);
  niid::ServerConfig server_config = ServerConfigFor(config, data.train);

  if (config.sparse_parties) {
    server_config.party_stream_seed = config.seed;
    *out_test = std::move(data.test);
    std::shared_ptr<const niid::PartySource> source;
    {
      ScopedSpan span(tracer, SpanKind::kPartition);
      source = std::make_shared<niid::LazyPartitionIndex>(
          std::move(data.train), partition_config);
    }
    auto traced = std::make_shared<TracedPartySource>(source, tracer);
    ScopedSpan span(tracer, SpanKind::kServerInit);
    return std::make_unique<niid::FederatedServer>(
        factory, std::move(traced), std::move(algorithm), server_config);
  }

  std::vector<std::unique_ptr<niid::Client>> clients;
  {
    ScopedSpan span(tracer, SpanKind::kPartition);
    const niid::Partition partition =
        niid::MakePartition(data.train, partition_config);
    niid::Rng setup_rng(config.seed);
    clients.reserve(partition.num_parties());
    for (int i = 0; i < partition.num_parties(); ++i) {
      niid::Rng client_rng = setup_rng.Split();
      niid::Dataset local = niid::MaterializeClientDataset(
          data.train, partition, i, client_rng);
      clients.push_back(std::make_unique<niid::Client>(i, std::move(local),
                                                       client_rng.Split()));
    }
  }
  *out_test = std::move(data.test);
  ScopedSpan span(tracer, SpanKind::kServerInit);
  return std::make_unique<niid::FederatedServer>(
      factory, std::move(clients), std::move(algorithm), server_config);
}

/// Restores the last checkpoint into a freshly built server and compares its
/// global state with the live one bitwise.
bool CheckpointReloads(const Workload& workload, const std::string& path,
                       const niid::FederatedServer& live, Tracer* tracer) {
  std::unique_ptr<niid::FederatedServer> fresh =
      niid::BuildServerForTrial(workload.config, 0, nullptr);
  niid::Status loaded;
  {
    ScopedSpan span(tracer, SpanKind::kCheckpointLoad);
    loaded = fresh->LoadCheckpoint(path);
  }
  return loaded.ok() && fresh->global_state() == live.global_state() &&
         fresh->rounds_completed() == live.rounds_completed();
}

void AddLoopFields(JsonObject& json, const LoopResult& loop) {
  json.Add("round_ms", NumberArray(loop.round_ms))
      .Add("eval_rounds", NumberArray(loop.eval_rounds))
      .Add("eval_accuracy", NumberArray(loop.eval_accuracy))
      .Number("loop_s", loop.loop_s)
      .Number("time_to_target_s", loop.time_to_target_s)
      .Number("cpu_s", loop.cpu_s)
      .Number("final_accuracy", loop.final_accuracy)
      .Number("failed_rounds", loop.failed_rounds)
      .Number("conservation_violations", loop.conservation_violations)
      .Number("checkpoints", loop.checkpoints)
      .Flag("checkpoints_ok", loop.checkpoints_ok);
  JsonObject counts;
  for (const auto& [name, value] : loop.counts) {
    counts.Number(name, static_cast<double>(value));
  }
  json.Add("counts", counts.str());
}

int Main(int argc, char** argv) {
  const niid::FlagParser flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 1));
  const std::string mode = flags.GetString("mode", "timed");
  const int rounds = flags.GetInt("rounds", 0);
  const std::string out_dir = flags.GetString("out_dir", ".");
  if (const niid::Status valid = flags.Validate(); !valid.ok()) {
    std::cerr << valid.ToString() << "\n";
    return 2;
  }
  std::optional<Workload> workload = MakeWorkload(name, seed);
  if (!workload || (mode != "timed" && mode != "traced") || rounds < 0) {
    std::cerr << "usage: fedbench --workload=NAME --seed=N "
                 "--mode=timed|traced [--rounds=N] [--out_dir=DIR]\n";
    return 2;
  }
  if (rounds > 0) workload->config.rounds = rounds;
  const std::string checkpoint = out_dir + "/" + workload->name + "-" +
                                 std::to_string(getpid()) + ".ckpt";

  JsonObject json;
  json.Text("workload", workload->name)
      .Text("mode", mode)
      .Number("seed", static_cast<double>(seed))
      .Text("build_type", FEDBENCH_BUILD_TYPE)
      .Text("compiler", FEDBENCH_COMPILER)
      .Number("threads", workload->config.num_threads)
      .Number("rounds", workload->config.rounds)
      .Number("eval_every", workload->config.eval_every)
      .Number("checkpoint_every", workload->checkpoint_every)
      .Number("target_accuracy", workload->target_accuracy)
      .Number("accuracy_floor", workload->accuracy_floor);
  std::cout << json.str() << std::endl;

  if (mode == "timed") {
    niid::Dataset test;
    const int64_t setup_start = NowNs();
    const std::unique_ptr<niid::FederatedServer> server =
        niid::BuildServerForTrial(workload->config, 0, &test);
    const double setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
    const LoopResult loop =
        RunLoop(*server, test, *workload, checkpoint, nullptr, nullptr);
    json.Number("setup_s", setup_s).Number("peak_rss_mb", PeakRssMb());
    AddLoopFields(json, loop);
    if (workload->checkpoint_every > 0) {
      json.Flag("checkpoint_reload_ok",
                CheckpointReloads(*workload, checkpoint, *server, nullptr));
      std::filesystem::remove(checkpoint);
    }
    json.Text("digest", Digest(server->global_state()));
    std::cout << json.str() << std::endl;
    return 0;
  }

  Tracer tracer;
  Replay replay;
  const bool replays = workload->config.compression.enabled() ||
                       workload->config.robust.enabled();
  niid::Dataset test;
  std::unique_ptr<niid::FederatedServer> server = BuildTracedServer(
      workload->config, &tracer, replays ? &replay.log : nullptr, &test);
  if (replays) {
    replay.codec = server->codec();
    auto robust = niid::CreateRobustAggregator(workload->config.robust);
    NIID_CHECK(robust.ok()) << robust.status().ToString();
    replay.robust = std::move(*robust);
    if (workload->config.num_threads > 1) {
      replay.pool =
          std::make_unique<niid::ThreadPool>(workload->config.num_threads);
    }
  }
  const LoopResult loop = RunLoop(*server, test, *workload, checkpoint,
                                  &tracer, replays ? &replay : nullptr);
  AddLoopFields(json, loop);
  json.Number("replay_s", loop.replay_s)
      .Number("replay_decode_failures", replay.decode_failures);
  LayerInputs inputs;
  inputs.workers = std::max(1, workload->config.num_threads);
  inputs.forward_macs_per_sample = workload->forward_macs_per_sample;
  if (workload->checkpoint_every > 0) {
    std::error_code missing;  // a failed save is reported by checkpoints_ok
    const auto bytes = std::filesystem::file_size(checkpoint, missing);
    inputs.checkpoint_bytes = missing ? 0 : static_cast<int64_t>(bytes);
    json.Flag("checkpoint_reload_ok",
              CheckpointReloads(*workload, checkpoint, *server, &tracer));
    std::filesystem::remove(checkpoint);
  }
  const std::vector<Span> spans = tracer.Collect();
  // The copies feeding the replays are taken on the workers, inside the
  // rounds; spread over the workers, this is what they add to the loop.
  int64_t record_ns = 0;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kRecord) {
      record_ns += span.end_ns - span.start_ns;
    }
  }
  json.Number("record_s",
              static_cast<double>(record_ns) / 1e9 / inputs.workers);
  const std::string trace_path =
      out_dir + "/" + workload->name + ".trace.json";
  {
    std::ofstream trace_file(trace_path);
    WriteChromeTrace(spans, trace_file);
  }
  JsonObject layers;
  for (const Metric& metric : ComputeLayerMetrics(spans, inputs)) {
    JsonObject entry;
    entry.Number("value", metric.value).Text("unit", metric.unit);
    layers.Add(metric.name, entry.str());
  }
  json.Add("layers", layers.str())
      .Number("spans", static_cast<double>(spans.size()))
      .Text("trace_file", trace_path)
      .Text("digest", Digest(server->global_state()));
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace fedbench

int main(int argc, char** argv) { return fedbench::Main(argc, argv); }
