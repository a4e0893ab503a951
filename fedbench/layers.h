#ifndef FEDBENCH_LAYERS_H_
#define FEDBENCH_LAYERS_H_

// Per-layer metrics derived from a traced run's spans.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace fedbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Median(std::vector<double> values);
/// The value at the highest percentile with at least ten values beyond it;
/// the maximum when there are fewer than eleven values.
double TailOf(std::vector<double> values);

struct LayerInputs {
  int workers = 1;
  double forward_macs_per_sample = 0.0;
  int64_t checkpoint_bytes = 0;
};

/// Every per-layer metric the benchmark reports, in a fixed order. Metrics
/// of a phase the workload never runs are 0.
std::vector<Metric> ComputeLayerMetrics(const std::vector<Span>& spans,
                                        const LayerInputs& inputs);

}  // namespace fedbench

#endif  // FEDBENCH_LAYERS_H_
