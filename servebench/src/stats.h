#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace servebench {

/// Fewest samples that must lie strictly beyond a reported percentile.
/// A tail figure resting on fewer outliers than this moves with every
/// single slow sample, which is the run-to-run noise this benchmark is
/// built to avoid.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (0 < pct < 100) of `samples`: the value at
/// 1-based rank ceil(pct/100 * n) of the sorted samples. Refuses with
/// InvalidArgument when fewer than kMinSamplesBeyond samples rank above
/// it, naming the metric.
mpc::Result<double> Percentile(std::vector<double> samples, double pct,
                               const std::string& metric);

/// Each list position's latency as the fastest sample of its distinct
/// query in the window. `samples[p * group_of.size() + i]` is position
/// i's sample in pass p, NaN where that query failed, and `group_of[i]`
/// is the distinct query at position i. The positions of one distinct
/// query send the same text, so their samples are pooled: a query
/// repeated 75 times a pass gives hundreds of samples spread over the
/// whole window, and the machine's other tenants only ever slow a query
/// down, so the fastest is the least disturbed measure of what the
/// query costs. Every position keeps its place, so a percentile over
/// the result is taken over the same query mix in every run. Positions
/// whose query never answered are left out.
std::vector<double> QueryMinimums(const std::vector<double>& samples,
                                  const std::vector<size_t>& group_of);

/// Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty sample.
double Quantile(std::vector<double> samples, double q);

/// Quantile(samples, 0.5); 0 for an empty sample.
double Median(std::vector<double> samples);

double Sum(const std::vector<double>& samples);

/// Peak resident set (VmHWM) of process `pid` in KiB, read from
/// /proc/<pid>/status; "self" for this process. 0 when unreadable.
uint64_t PeakRssKib(const std::string& pid);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
