#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "common/hash.hpp"
#include "core/query_engine.hpp"

namespace perfbench {

void Outcome::note(const std::string& key, double value) {
  note(key, num(value));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool more_setups(const std::vector<double>& setups) {
  const double total = std::accumulate(setups.begin(), setups.end(), 0.0);
  return setups.size() < 9 || (total < 0.2 && setups.size() < 2000);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool Fingerprint::matches(const Fingerprint& other) const {
  return cells == other.cells && cell_hash == other.cell_hash &&
         std::fabs(values - other.values) <=
             1e-9 * std::max(std::fabs(values), std::fabs(other.values));
}

Fingerprint fingerprint(const stash::CellSummaryMap& cells) {
  Fingerprint fp;
  fp.cells = cells.size();
  for (const auto& [key, summary] : cells) {
    const std::uint64_t key_hash =
        stash::mix64(key.spatial ^ (std::uint64_t{key.temporal} << 1));
    // A sum, not XOR: order-independent, and a duplicated term cannot
    // cancel itself out.
    fp.cell_hash += stash::mix64(key_hash ^ summary.observation_count());
    const double weight =
        1.0 + static_cast<double>(key_hash & 0xffff) / 65536.0;
    for (const stash::AttributeSummary& a : summary.attributes())
      fp.values += weight * (std::fabs(a.sum) + a.sum_sq + std::fabs(a.min) +
                             std::fabs(a.max));
  }
  return fp;
}

std::vector<Fingerprint> basic_fingerprints(
    const std::vector<stash::AggregationQuery>& queries, std::size_t threads) {
  const auto generator = std::make_shared<const stash::NamGenerator>();
  const stash::GalileoStore store(generator);
  std::vector<Fingerprint> out(queries.size());
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      // Basic mode never reads the graph: each thread gets an empty one.
      stash::StashGraph empty;
      const stash::QueryEngine basic(empty, store);
      for (std::size_t i = t; i < queries.size(); i += threads)
        out[i] = fingerprint(
            basic.evaluate(queries[i], stash::EvalMode::Basic).cells);
    });
  for (std::thread& t : pool) t.join();
  return out;
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace perfbench
