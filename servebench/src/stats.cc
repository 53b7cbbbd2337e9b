#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

namespace servebench {

mpc::Result<double> Percentile(std::vector<double> samples, double pct,
                               const std::string& metric) {
  if (!(pct > 0.0 && pct < 100.0)) {
    return mpc::Status::InvalidArgument(metric + ": percentile " +
                                        std::to_string(pct) +
                                        " is outside (0, 100)");
  }
  const size_t n = samples.size();
  const size_t rank =
      n == 0 ? 0
             : std::max<size_t>(1, static_cast<size_t>(std::ceil(
                                       pct / 100.0 * static_cast<double>(n))));
  if (n == 0 || n - rank < kMinSamplesBeyond) {
    return mpc::Status::InvalidArgument(
        metric + ": p" + std::to_string(pct) + " of " + std::to_string(n) +
        " samples leaves " + std::to_string(n - rank) +
        " beyond it (need " + std::to_string(kMinSamplesBeyond) + ")");
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::vector<double> QueryMinimums(const std::vector<double>& samples,
                                  const std::vector<size_t>& group_of) {
  const size_t list_size = group_of.size();
  if (list_size == 0) return {};
  const size_t groups =
      *std::max_element(group_of.begin(), group_of.end()) + 1;
  std::vector<double> fastest(groups,
                              std::numeric_limits<double>::infinity());
  for (size_t at = 0; at < samples.size(); ++at) {
    double& best = fastest[group_of[at % list_size]];
    if (!std::isnan(samples[at])) best = std::min(best, samples[at]);
  }
  std::vector<double> per_position;
  for (size_t group : group_of) {
    if (!std::isinf(fastest[group])) per_position.push_back(fastest[group]);
  }
  return per_position;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  if (lo + 1 >= samples.size()) return samples.back();
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

uint64_t PeakRssKib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    uint64_t kib = 0;
    fields >> kib;
    return kib;
  }
  return 0;
}

}  // namespace servebench
