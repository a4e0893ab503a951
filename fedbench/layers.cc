#include "layers.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <utility>

namespace fedbench {

namespace {

int64_t Duration(const Span& span) { return span.end_ns - span.start_ns; }

/// Length of the union of `intervals`, each clipped to [lo, hi).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>& intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t covered_to = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, covered_to);
    end = std::min(end, hi);
    if (end <= start) continue;
    total += end - start;
    covered_to = end;
  }
  return total;
}

struct KindStats {
  int64_t count = 0;
  int64_t busy_ns = 0;
  int64_t arg_sum = 0;
  std::vector<double> durations_ms;
};

/// Work a pool worker does for one party. The traced run's copy of the
/// party's update counts too: it keeps the worker busy, not idle.
bool IsPartyWork(SpanKind kind) {
  return kind == SpanKind::kTrain || kind == SpanKind::kMaterialize ||
         kind == SpanKind::kRecord;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values.size() < 11 ? values.back() : values[values.size() - 11];
}

std::vector<Metric> ComputeLayerMetrics(const std::vector<Span>& spans,
                                        const LayerInputs& inputs) {
  std::array<KindStats, static_cast<size_t>(SpanKind::kCount)> kinds;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    KindStats& stats = kinds[static_cast<size_t>(span.kind)];
    ++stats.count;
    stats.busy_ns += Duration(span);
    stats.arg_sum += span.arg;
    stats.durations_ms.push_back(static_cast<double>(Duration(span)) / 1e6);
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  const auto of = [&kinds](SpanKind kind) -> const KindStats& {
    return kinds[static_cast<size_t>(kind)];
  };
  const auto seconds = [&of](SpanKind kind) {
    return static_cast<double>(of(kind).busy_ns) / 1e9;
  };
  const auto p50_ms = [&of](SpanKind kind) {
    return Median(of(kind).durations_ms);
  };
  const auto us_per_sample = [&of](SpanKind kind) {
    const KindStats& stats = of(kind);
    return stats.arg_sum > 0 ? static_cast<double>(stats.busy_ns) / 1e3 /
                                   static_cast<double>(stats.arg_sum)
                             : 0.0;
  };

  // Rounds: self time is the round's duration minus the union of its child
  // spans; the parallel window is first to last party-work span.
  std::vector<double> round_self_ms;
  std::vector<double> start_wait_ms;
  int64_t party_busy_ns = 0;
  int64_t pool_capacity_ns = 0;
  // Training spans: the share of RunClient time outside nn forward/backward.
  int64_t nn_in_train_ns = 0;
  for (const Span& span : spans) {
    const auto found = children.find(span.id);
    if (span.kind == SpanKind::kTrain && found != children.end()) {
      for (const Span* child : found->second) {
        if (child->kind == SpanKind::kTrainForward ||
            child->kind == SpanKind::kBackward) {
          nn_in_train_ns += Duration(*child);
        }
      }
    }
    if (span.kind != SpanKind::kRound) continue;
    std::vector<std::pair<int64_t, int64_t>> intervals;
    int64_t window_lo = span.end_ns;
    int64_t window_hi = span.start_ns;
    std::map<int64_t, int64_t> party_start;  // party id -> first start
    if (found != children.end()) {
      for (const Span* child : found->second) {
        intervals.emplace_back(child->start_ns, child->end_ns);
        if (!IsPartyWork(child->kind)) continue;
        party_busy_ns += Duration(*child);
        window_lo = std::min(window_lo, child->start_ns);
        window_hi = std::max(window_hi, child->end_ns);
        const auto [it, inserted] =
            party_start.emplace(child->arg, child->start_ns);
        if (!inserted) it->second = std::min(it->second, child->start_ns);
      }
    }
    const int64_t covered =
        UnionLength(intervals, span.start_ns, span.end_ns);
    round_self_ms.push_back(static_cast<double>(Duration(span) - covered) /
                            1e6);
    if (window_hi > window_lo) {
      pool_capacity_ns += inputs.workers * (window_hi - window_lo);
      for (const auto& [party, start] : party_start) {
        start_wait_ms.push_back(static_cast<double>(start - window_lo) / 1e6);
      }
    }
  }

  const KindStats& train = of(SpanKind::kTrain);
  const KindStats& forward = of(SpanKind::kTrainForward);
  const KindStats& backward = of(SpanKind::kBackward);
  // Analytic training FLOPs: 2 per multiply-add forward, backward counted as
  // twice the forward (input and weight gradients).
  const double train_flops =
      2.0 * inputs.forward_macs_per_sample *
      (static_cast<double>(forward.arg_sum) +
       2.0 * static_cast<double>(backward.arg_sum));
  const int64_t nn_train_ns = forward.busy_ns + backward.busy_ns;
  const KindStats& encode = of(SpanKind::kEncode);

  return {
      {"data.generate_s", seconds(SpanKind::kGenerate), "s"},
      {"data.materialize.count",
       static_cast<double>(of(SpanKind::kMaterialize).count), "count"},
      {"data.materialize.busy_s", seconds(SpanKind::kMaterialize), "s"},
      {"data.materialize_us_p50", p50_ms(SpanKind::kMaterialize) * 1e3,
       "us"},
      {"partition.build_s", seconds(SpanKind::kPartition), "s"},
      {"fl.server_init_s", seconds(SpanKind::kServerInit), "s"},
      {"nn.train_forward.busy_s", seconds(SpanKind::kTrainForward), "s"},
      {"nn.backward.busy_s", seconds(SpanKind::kBackward), "s"},
      {"nn.eval_forward.busy_s", seconds(SpanKind::kEvalForward), "s"},
      {"nn.train_forward_us_per_sample",
       us_per_sample(SpanKind::kTrainForward), "us"},
      {"nn.backward_us_per_sample", us_per_sample(SpanKind::kBackward), "us"},
      {"nn.eval_forward_us_per_sample", us_per_sample(SpanKind::kEvalForward),
       "us"},
      {"tensor.train_gflops",
       nn_train_ns > 0 ? train_flops / static_cast<double>(nn_train_ns) : 0.0,
       "GFLOP/s"},
      {"fl.train.count", static_cast<double>(train.count), "count"},
      {"fl.train.busy_s", seconds(SpanKind::kTrain), "s"},
      {"fl.train.party_ms_p50", Median(train.durations_ms), "ms"},
      {"fl.train.party_ms_tail", TailOf(train.durations_ms), "ms"},
      {"fl.train.overhead_share",
       train.busy_ns > 0 ? 1.0 - static_cast<double>(nn_in_train_ns) /
                                     static_cast<double>(train.busy_ns)
                         : 0.0,
       "fraction"},
      {"fl.round.self_ms_p50", Median(round_self_ms), "ms"},
      {"fl.round.self_ms_tail", TailOf(round_self_ms), "ms"},
      {"fl.prepare_ms_p50", p50_ms(SpanKind::kPrepare), "ms"},
      {"fl.aggregate_ms_p50", p50_ms(SpanKind::kAggregate), "ms"},
      {"fl.codec.encode_us_p50", p50_ms(SpanKind::kEncode) * 1e3, "us"},
      {"fl.codec.decode_us_p50", p50_ms(SpanKind::kDecode) * 1e3, "us"},
      {"fl.codec.bytes_per_update",
       encode.count > 0 ? static_cast<double>(encode.arg_sum) /
                              static_cast<double>(encode.count)
                        : 0.0,
       "bytes"},
      {"fl.robust.apply_ms_p50", p50_ms(SpanKind::kRobustApply), "ms"},
      {"fl.eval_ms_p50", p50_ms(SpanKind::kEval), "ms"},
      {"fl.eval.count", static_cast<double>(of(SpanKind::kEval).count),
       "count"},
      {"fl.checkpoint.save_ms_p50", p50_ms(SpanKind::kCheckpointSave), "ms"},
      {"fl.checkpoint.bytes", static_cast<double>(inputs.checkpoint_bytes),
       "bytes"},
      {"fl.checkpoint.load_ms", p50_ms(SpanKind::kCheckpointLoad), "ms"},
      {"util.pool.idle_share",
       pool_capacity_ns > 0 ? 1.0 - static_cast<double>(party_busy_ns) /
                                        static_cast<double>(pool_capacity_ns)
                            : 0.0,
       "fraction"},
      {"util.pool.start_wait_ms_p50", Median(start_wait_ms), "ms"},
  };
}

}  // namespace fedbench
