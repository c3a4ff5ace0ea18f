// Shared plumbing for the repository benchmark: run arguments, the result
// record, host-clock spans, order statistics and answer checks.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/query.hpp"
#include "storage/galileo_store.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Monotonic host nanoseconds (the clock every span is taken on).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// What one run produced.  `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run), in print order;
/// `record` holds provenance and counters that are not metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> record;
  std::vector<std::string> lines;  // extra human-readable report lines
  std::vector<std::string> bypassed;  // per-layer metrics not measured here

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& value) {
    record.push_back({key, value});
  }
  void note(const std::string& key, double value);
  void error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  [[nodiscard]] bool correct() const { return errors.empty(); }
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);
double ratio(double num, double den);  // 0 when den == 0

/// setup_s is the median of the set-ups a run makes: at least 9, and
/// more until they add up to 0.2 s, so that a set-up of microseconds is
/// still a median of many (at most 2000).
bool more_setups(const std::vector<double>& setups);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Order-independent summary of one answer, standing in for the answer
/// itself when every answer of a run is checked.  Exact parts: the cell
/// count and a sum of per-cell hashes over each cell's key and observation
/// count (so the key set and every cell's count must match).  Approximate
/// part: a sum over cells of a key-dependent weight times the magnitudes
/// of each attribute's sum, sum of squares, min and max, which merge order
/// perturbs only by rounding.  Two fingerprints match when the exact parts
/// are equal and the value sums agree within the relative tolerance
/// Summary::approx_equals uses.
struct Fingerprint {
  std::size_t cells = 0;
  std::uint64_t cell_hash = 0;
  double values = 0;

  [[nodiscard]] bool matches(const Fingerprint& other) const;
};
Fingerprint fingerprint(const stash::CellSummaryMap& cells);

/// Fingerprints of the Basic-mode (no cache) answers of `queries`,
/// computed on `threads` threads over one shared store.
std::vector<Fingerprint> basic_fingerprints(
    const std::vector<stash::AggregationQuery>& queries, std::size_t threads);

/// Formats a double with all its digits for the JSON record.
std::string num(double value);

}  // namespace perfbench
