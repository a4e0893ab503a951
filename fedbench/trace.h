#ifndef FEDBENCH_TRACE_H_
#define FEDBENCH_TRACE_H_

// Span tracing from outside the library. The traced run records spans at
// public seams only: a Module wrapped around every model the factory
// returns, an FlAlgorithm wrapped around the algorithm, a PartySource wrapped
// around the lazy party index, and the benchmark's own calls. The wrappers
// forward every call unchanged, so a traced federation computes exactly what
// an untraced one does (the benchmark checks the final global state
// bitwise).
//
// Spans go into per-thread buffers (no lock on the recording path) and are
// collected once the run has ended.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "data/party_source.h"
#include "fl/algorithm.h"
#include "nn/models/factory.h"
#include "nn/module.h"

namespace fedbench {

enum class SpanKind : uint8_t {
  // Calls the benchmark makes itself.
  kGenerate,        // MakeCatalogDataset + standardize
  kPartition,       // MakePartition + MaterializeClientDataset, or lazy index
  kServerInit,      // FederatedServer constructor
  kRound,           // FederatedServer::RunRound
  kEval,            // FederatedServer::EvaluateGlobal
  kCheckpointSave,  // FederatedServer::SaveCheckpoint
  kCheckpointLoad,  // FederatedServer::LoadCheckpoint into a fresh server
  // Wrapped seams.
  kPrepare,       // FlAlgorithm::PrepareClients
  kTrain,         // FlAlgorithm::RunClient (arg = party id)
  kRecord,        // copy of a RunClient output for the replays (arg = party)
  kAggregate,     // FlAlgorithm::Aggregate
  kMaterialize,   // PartySource::MaterializeParty (arg = party id)
  kTrainForward,  // Module::Forward in training mode (arg = samples)
  kBackward,      // Module::Backward (arg = samples)
  kEvalForward,   // Module::Forward in evaluation mode (arg = samples)
  // Replays on copies of each round's RunClient outputs.
  kEncode,       // UpdateCodec::Encode (arg = payload bytes)
  kDecode,       // UpdateCodec::Decode
  kRobustApply,  // RobustAggregator::Apply
  kCount,
};

const char* SpanName(SpanKind kind);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no parent
  int64_t arg = 0;
  int32_t round = -1;   // -1: outside the round loop
  int32_t thread = 0;
  SpanKind kind = SpanKind::kRound;
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Process-wide span recorder; create at most one per process (each thread's
/// buffer pointer is a single thread_local). A span opened on a thread with
/// no open span takes the current root (a main-thread span such as the
/// round or the evaluation) as its parent, which links work the thread pool
/// runs on behalf of a round back to that round.
class Tracer {
 public:
  struct ThreadBuffer {
    int32_t index = 0;
    uint64_t next_seq = 0;
    std::vector<Span> spans;
    std::vector<uint64_t> open;
  };

  /// The calling thread's buffer, registered on first use.
  ThreadBuffer& Local();

  void set_round(int round) { round_.store(round, std::memory_order_relaxed); }
  int round() const { return round_.load(std::memory_order_relaxed); }
  void set_root(uint64_t id) { root_.store(id, std::memory_order_relaxed); }
  uint64_t root() const { return root_.load(std::memory_order_relaxed); }

  /// Every recorded span, ordered by start time. Call only while no thread
  /// is recording (after the thread pool has gone idle).
  std::vector<Span> Collect();

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mutex_
  std::atomic<int> round_{-1};
  std::atomic<uint64_t> root_{0};
};

/// RAII span. A null tracer makes it a no-op, so the benchmark's loop is
/// shared by the timed and the traced run. A `root` span becomes the parent
/// of spans that threads without an open span record while it is open.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, int64_t arg = 0,
             bool root = false);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(int64_t arg) { span_.arg = arg; }

 private:
  Tracer* tracer_;
  Tracer::ThreadBuffer* buffer_ = nullptr;
  bool root_;
  uint64_t previous_root_ = 0;
  Span span_;
};

/// Wraps every model `inner` builds in a Module that times Forward (split by
/// training/evaluation mode) and Backward.
niid::ModelFactory TracedFactory(niid::ModelFactory inner, Tracer* tracer);

/// Copies of the updates RunClient returned, kept for the codec and robust
/// replays. Thread-safe; storage is reused round to round.
class UpdateLog {
 public:
  void Record(const niid::LocalUpdate& update);
  /// Sorts the updates recorded since the last Clear by party id and returns
  /// them (the first `count` entries of the returned vector). Call only
  /// between rounds, when no RunClient is in flight.
  const std::vector<niid::LocalUpdate>& SortRound(size_t* count);
  void Clear();

 private:
  std::mutex mutex_;
  std::vector<niid::LocalUpdate> updates_;  // guarded by mutex_
  size_t count_ = 0;                        // guarded by mutex_
};

/// Times PrepareClients, RunClient and Aggregate of `inner`; every call is
/// forwarded unchanged. With a non-null `log`, RunClient outputs are copied
/// into it after the timed call.
class TracedAlgorithm final : public niid::FlAlgorithm {
 public:
  TracedAlgorithm(std::unique_ptr<niid::FlAlgorithm> inner, Tracer* tracer,
                  UpdateLog* log);

  std::string name() const override { return inner_->name(); }
  void Initialize(int num_clients, int64_t state_size) override;
  void PrepareClients(const std::vector<int>& client_ids) override;
  niid::LocalUpdate RunClient(niid::Client& client, niid::TrainContext& ctx,
                              const niid::StateVector& global,
                              const niid::LocalTrainOptions& options) override;
  using niid::FlAlgorithm::Aggregate;
  void Aggregate(niid::StateVector& global,
                 std::vector<niid::LocalUpdate>& updates,
                 const std::vector<niid::StateSegment>& layout,
                 niid::ShardReducer& reducer) override;
  int64_t UploadFloatsPerClient(int64_t state_size) const override {
    return inner_->UploadFloatsPerClient(state_size);
  }
  std::vector<niid::StateVector> SaveAlgorithmState() const override {
    return inner_->SaveAlgorithmState();
  }
  niid::Status LoadAlgorithmState(
      const std::vector<niid::StateVector>& state) override {
    return inner_->LoadAlgorithmState(state);
  }

 private:
  std::unique_ptr<niid::FlAlgorithm> inner_;
  Tracer* tracer_;
  UpdateLog* log_;
};

/// Times MaterializeParty of `inner`.
class TracedPartySource final : public niid::PartySource {
 public:
  TracedPartySource(std::shared_ptr<const niid::PartySource> inner,
                    Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  int64_t num_parties() const override { return inner_->num_parties(); }
  int64_t num_classes() const override { return inner_->num_classes(); }
  void MaterializeParty(int64_t id, niid::Dataset& out) const override;

 private:
  std::shared_ptr<const niid::PartySource> inner_;
  Tracer* tracer_;
};

/// Writes `spans` as Chrome trace-event JSON (an array of complete "X"
/// events, timestamps in microseconds from the earliest span), which
/// chrome://tracing and the Perfetto UI open directly.
void WriteChromeTrace(const std::vector<Span>& spans, std::ostream& out);

}  // namespace fedbench

#endif  // FEDBENCH_TRACE_H_
