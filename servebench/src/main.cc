// servebench: the serving benchmark's program. One process runs one
// workload, so peak RSS, allocator state and metric registries never
// carry over between workloads.
//
//   servebench run --workload W --seed N --seconds S --trace 0|1
//                  --work DIR --mpc PATH
//       Generates W's inputs for seed N under DIR, deploys the system
//       from them, measures it and checks every answer against its
//       oracle. Prints each metric as "name value unit", then one JSON
//       line {"correct", "attempted", "failed", "metrics"}. Exits 1 when
//       an answer is wrong or anything failed.
//   servebench gen --workload W --seed N --out DIR
//       Only writes the inputs.
//   servebench selftest
//       Checks the percentile and per-query minimum helpers.

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {
namespace {

int Usage() {
  std::cerr << "usage: servebench run --workload W --seed N --seconds S "
               "--trace 0|1 --work DIR --mpc PATH\n"
               "       servebench gen --workload W --seed N --out DIR\n"
               "       servebench selftest\n";
  return 2;
}

/// Every number with all its digits (shortest round-trip form).
std::string JsonNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

bool ParseUint(const std::string& text, uint64_t* out) {
  auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size();
}

int SelfTest() {
  struct Case {
    size_t n;
    double pct;
    bool ok;
    double expected;  // samples are 1..n
  };
  int failures = 0;
  for (const Case& c : std::vector<Case>{{19, 50, false, 0},
                                         {20, 50, true, 10},
                                         {99, 90, false, 0},
                                         {100, 90, true, 90},
                                         {999, 99, false, 0},
                                         {1000, 99, true, 990},
                                         {0, 50, false, 0},
                                         {1000, 100, false, 0}}) {
    std::vector<double> samples;
    for (size_t i = c.n; i >= 1; --i) samples.push_back(static_cast<double>(i));
    mpc::Result<double> p = Percentile(samples, c.pct, "selftest");
    const bool pass = p.ok() == c.ok && (!c.ok || *p == c.expected);
    if (!pass) {
      ++failures;
      std::cerr << "FAIL: p" << c.pct << " of " << c.n << " samples: "
                << (p.ok() ? JsonNumber(*p) : p.status().ToString()) << "\n";
    }
  }
  // Three passes over a list of three positions. Positions 0 and 2 send
  // query 0, which answered 4, 9 and 2 (NaN marks a failure); position
  // 1 sends query 1, which answered 5 and 7.
  const double nan = std::nan("");
  const std::vector<double> samples = {4, 5, nan, 9, nan, nan, 2, 7, nan};
  struct PoolCase {
    std::vector<size_t> group_of;
    std::vector<double> expected;
  };
  for (const PoolCase& c : std::vector<PoolCase>{
           {{0, 1, 0}, {2, 5, 2}},
           // Query 2 at position 2 never answered: left out.
           {{0, 1, 2}, {2, 5}}}) {
    if (QueryMinimums(samples, c.group_of) != c.expected) {
      ++failures;
      std::cerr << "FAIL: QueryMinimums\n";
    }
  }
  std::cout << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "selftest") return SelfTest();

  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage();
  auto flag = [&](const char* name) -> const std::string* {
    auto it = flags.find(name);
    return it == flags.end() ? nullptr : &it->second;
  };

  RunOptions options;
  if (flag("workload") == nullptr || flag("seed") == nullptr) return Usage();
  mpc::Result<Workload> workload = ParseWorkload(*flag("workload"));
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 2;
  }
  options.workload = *workload;
  if (!ParseUint(*flag("seed"), &options.seed)) return Usage();

  if (command == "gen") {
    if (flag("out") == nullptr) return Usage();
    mpc::Status st = GenerateInputs(options.workload, options.seed,
                                    *flag("out"));
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage();

  uint64_t seconds = 0;
  uint64_t trace = 0;
  if (flag("seconds") == nullptr || !ParseUint(*flag("seconds"), &seconds) ||
      seconds == 0 || flag("trace") == nullptr ||
      !ParseUint(*flag("trace"), &trace) || trace > 1 ||
      flag("work") == nullptr || flag("mpc") == nullptr) {
    return Usage();
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.work_dir = *flag("work");
  options.mpc_binary = *flag("mpc");

  mpc::Result<RunReport> report = RunWorkload(options);
  if (!report.ok()) {
    std::cerr << "benchmark error: " << report.status().ToString() << "\n";
    return 1;
  }
  bool finite = true;
  std::string metrics;
  for (const Metric& m : report->metrics) {
    finite = finite && std::isfinite(m.value);
    std::cout << WorkloadName(options.workload) << " " << m.name << " "
              << JsonNumber(m.value) << " " << m.unit << "\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  if (!finite) {
    std::cerr << "benchmark error: a metric is not a finite number\n";
    return 1;
  }
  const double failed_pct =
      100.0 * static_cast<double>(report->failed) /
      static_cast<double>(report->attempted == 0 ? 1 : report->attempted);
  std::cout << WorkloadName(options.workload) << " failed_pct "
            << JsonNumber(failed_pct) << " % (" << report->failed << " of "
            << report->attempted << " operations)\n";
  std::cout << "{\"correct\": " << (report->correct ? "true" : "false")
            << ", \"attempted\": " << report->attempted
            << ", \"failed\": " << report->failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return report->correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
