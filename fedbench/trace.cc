#include "trace.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace fedbench {

namespace {

thread_local Tracer::ThreadBuffer* tls_buffer = nullptr;

/// A model behind the factory seam: every call is forwarded to the wrapped
/// model; Forward and Backward are additionally timed. The base-class state
/// read by non-virtual getters (training(), compute_pool(), ...) is mirrored
/// so callers see the wrapped model's view.
class TracedModule final : public niid::Module {
 public:
  TracedModule(std::unique_ptr<niid::Module> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {
    training_ = inner_->training();
    weight_pack_caching_ = inner_->weight_pack_caching();
    compute_pool_ = inner_->compute_pool();
  }

  const niid::Tensor& Forward(const niid::Tensor& input) override {
    samples_ = input.rank() > 0 ? input.dim(0) : 0;
    ScopedSpan span(tracer_,
                    training_ ? SpanKind::kTrainForward
                              : SpanKind::kEvalForward,
                    samples_);
    return inner_->Forward(input);
  }

  const niid::Tensor& Backward(const niid::Tensor& grad_output) override {
    ScopedSpan span(tracer_, SpanKind::kBackward, samples_);
    return inner_->Backward(grad_output);
  }

  std::vector<niid::Parameter*> Parameters() override {
    return inner_->Parameters();
  }

  void SetTraining(bool training) override {
    training_ = training;
    inner_->SetTraining(training);
  }

  void SetComputePool(niid::ThreadPool* pool) override {
    compute_pool_ = pool;
    inner_->SetComputePool(pool);
  }

  void InvalidateWeightCaches() override { inner_->InvalidateWeightCaches(); }

  void SetWeightPackCaching(bool enabled) override {
    weight_pack_caching_ = enabled;
    inner_->SetWeightPackCaching(enabled);
  }

  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<niid::Module> inner_;
  Tracer* tracer_;
  int64_t samples_ = 0;  // batch of the last Forward, tagged on Backward
};

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGenerate: return "data.generate";
    case SpanKind::kPartition: return "partition.build";
    case SpanKind::kServerInit: return "fl.server_init";
    case SpanKind::kRound: return "fl.round";
    case SpanKind::kEval: return "fl.eval";
    case SpanKind::kCheckpointSave: return "fl.checkpoint.save";
    case SpanKind::kCheckpointLoad: return "fl.checkpoint.load";
    case SpanKind::kPrepare: return "fl.prepare";
    case SpanKind::kTrain: return "fl.train";
    case SpanKind::kRecord: return "trace.record";
    case SpanKind::kAggregate: return "fl.aggregate";
    case SpanKind::kMaterialize: return "data.materialize";
    case SpanKind::kTrainForward: return "nn.train_forward";
    case SpanKind::kBackward: return "nn.backward";
    case SpanKind::kEvalForward: return "nn.eval_forward";
    case SpanKind::kEncode: return "fl.codec.encode";
    case SpanKind::kDecode: return "fl.codec.decode";
    case SpanKind::kRobustApply: return "fl.robust.apply";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::ThreadBuffer& Tracer::Local() {
  if (tls_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 16);
    buffer->open.reserve(16);
    const std::lock_guard<std::mutex> lock(mutex_);
    buffer->index = static_cast<int32_t>(buffers_.size());
    tls_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *tls_buffer;
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  all.reserve(total);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanKind kind, int64_t arg, bool root)
    : tracer_(tracer), root_(root) {
  if (tracer_ == nullptr) return;
  buffer_ = &tracer_->Local();
  span_.kind = kind;
  span_.arg = arg;
  span_.round = tracer_->round();
  span_.thread = buffer_->index;
  span_.id = (static_cast<uint64_t>(buffer_->index) + 1) << 40 |
             ++buffer_->next_seq;
  span_.parent =
      buffer_->open.empty() ? tracer_->root() : buffer_->open.back();
  buffer_->open.push_back(span_.id);
  if (root_) {
    previous_root_ = tracer_->root();
    tracer_->set_root(span_.id);
  }
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  buffer_->open.pop_back();
  if (root_) tracer_->set_root(previous_root_);
  buffer_->spans.push_back(span_);
}

niid::ModelFactory TracedFactory(niid::ModelFactory inner, Tracer* tracer) {
  return [inner = std::move(inner), tracer](niid::Rng& rng) {
    return std::unique_ptr<niid::Module>(
        std::make_unique<TracedModule>(inner(rng), tracer));
  };
}

void UpdateLog::Record(const niid::LocalUpdate& update) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == updates_.size()) {
    updates_.push_back(update);
  } else {
    updates_[count_] = update;  // reuses the slot's buffers
  }
  ++count_;
}

const std::vector<niid::LocalUpdate>& UpdateLog::SortRound(size_t* count) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::sort(updates_.begin(), updates_.begin() + count_,
            [](const niid::LocalUpdate& a, const niid::LocalUpdate& b) {
              return a.client_id < b.client_id;
            });
  *count = count_;
  return updates_;
}

void UpdateLog::Clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  count_ = 0;
}

TracedAlgorithm::TracedAlgorithm(std::unique_ptr<niid::FlAlgorithm> inner,
                                 Tracer* tracer, UpdateLog* log)
    : inner_(std::move(inner)), tracer_(tracer), log_(log) {}

void TracedAlgorithm::Initialize(int num_clients, int64_t state_size) {
  inner_->Initialize(num_clients, state_size);
}

void TracedAlgorithm::PrepareClients(const std::vector<int>& client_ids) {
  ScopedSpan span(tracer_, SpanKind::kPrepare,
                  static_cast<int64_t>(client_ids.size()));
  inner_->PrepareClients(client_ids);
}

niid::LocalUpdate TracedAlgorithm::RunClient(
    niid::Client& client, niid::TrainContext& ctx,
    const niid::StateVector& global, const niid::LocalTrainOptions& options) {
  niid::LocalUpdate update;
  {
    ScopedSpan span(tracer_, SpanKind::kTrain, client.id());
    update = inner_->RunClient(client, ctx, global, options);
  }
  if (log_ != nullptr) {
    ScopedSpan span(tracer_, SpanKind::kRecord, client.id());
    log_->Record(update);
  }
  return update;
}

void TracedAlgorithm::Aggregate(niid::StateVector& global,
                                std::vector<niid::LocalUpdate>& updates,
                                const std::vector<niid::StateSegment>& layout,
                                niid::ShardReducer& reducer) {
  ScopedSpan span(tracer_, SpanKind::kAggregate,
                  static_cast<int64_t>(updates.size()));
  inner_->Aggregate(global, updates, layout, reducer);
}

void TracedPartySource::MaterializeParty(int64_t id,
                                         niid::Dataset& out) const {
  ScopedSpan span(tracer_, SpanKind::kMaterialize, id);
  inner_->MaterializeParty(id, out);
}

void WriteChromeTrace(const std::vector<Span>& spans, std::ostream& out) {
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  out << "[\n";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << SpanName(span.kind)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
        << ",\"dur\":"
        << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"round\":" << span.round << ",\"arg\":" << span.arg << "}}";
  }
  out << "\n]\n";
}

}  // namespace fedbench
