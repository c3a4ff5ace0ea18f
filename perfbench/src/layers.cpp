#include "layers.hpp"

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common/checksum.hpp"
#include "common/codec.hpp"
#include "concurrency/worker_pool.hpp"
#include "core/chunk.hpp"
#include "exec/wall_clock.hpp"
#include "geo/geohash.hpp"
#include "sim/cost_model.hpp"

namespace perfbench {

namespace {

constexpr const char* kPan = "pan_small_warm";
constexpr const char* kSession = "session_large_evict";
constexpr const char* kCluster = "cluster_hotspot";
constexpr const char* kExecBoth = "pan_small_warm,session_large_evict";
constexpr const char* kAll =
    "pan_small_warm,session_large_evict,cluster_hotspot";

/// Repeats `batch` (which returns the ops it did) until at least
/// `min_seconds` and 5 batches have passed; returns the median ns per op.
template <typename Batch>
double median_ns_per_op(Batch&& batch, double min_seconds = 0.05) {
  std::vector<double> per_op;
  const std::uint64_t start = now_ns();
  while (per_op.size() < 5 || seconds_since(start) < min_seconds) {
    const std::uint64_t t0 = now_ns();
    const double ops = static_cast<double>(batch());
    per_op.push_back(static_cast<double>(now_ns() - t0) / ops);
  }
  return median(per_op);
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "", kAll},
      {"throughput_qps", "queries/s", "", kAll},
      {"latency_p50_us", "us", "", kAll},
      {"latency_p99_us", "us", "", kAll},
      {"ok_frac", "ratio", "", kAll},
      {"peak_rss_mb", "MiB", "", kAll},
      {"sim_latency_p50_ms", "virtual_ms", "", kAll},
      {"sim_latency_p99_ms", "virtual_ms", "", kAll},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"exec.evaluate_ns", "ns", "latency_p50_us", kExecBoth},
      {"exec.chunks_per_query", "count", "latency_p50_us", kExecBoth},
      {"exec.absorb_ns", "ns", "throughput_qps", kSession},
      {"concurrency.handoff_ns", "ns", "latency_p50_us", kPan},
      {"concurrency.tasks_per_query", "count", "throughput_qps", kPan},
      {"concurrency.steal_ratio", "ratio", "throughput_qps", kPan},
      {"concurrency.parks_per_query", "count", "throughput_qps", kPan},
      {"concurrency.submit_shed", "count", "throughput_qps", kPan},
      {"core.plan_ns", "ns", "latency_p50_us", kPan},
      {"core.chunk_hit_ns", "ns", "latency_p50_us", kPan},
      {"core.collect_ns_per_cell", "ns/cell", "latency_p99_us", kSession},
      {"core.chunk_rollup_ns", "ns", "latency_p99_us", kSession},
      {"core.rollup_ns_per_cell", "ns/cell", "latency_p99_us", kSession},
      {"core.chunk_scan_ns", "ns", "throughput_qps", kSession},
      {"core.absorb_ns_per_cell", "ns/cell", "throughput_qps", kSession},
      {"core.evicted_per_query", "count", "throughput_qps", kSession},
      {"core.freshness_updates_per_query", "count", "throughput_qps",
       kSession},
      {"core.chunks_total", "count", "throughput_qps", kSession},
      {"core.hit_ratio", "ratio", "throughput_qps", kSession},
      {"core.rollup_ratio", "ratio", "throughput_qps", kSession},
      {"core.scan_ratio", "ratio", "throughput_qps", kSession},
      {"storage.scan_ns_per_record", "ns/record", "throughput_qps", kSession},
      {"storage.records_per_query", "count", "throughput_qps", kSession},
      {"storage.blocks_per_query", "count", "throughput_qps", kSession},
      {"storage.bytes_per_query", "bytes", "throughput_qps", kSession},
      {"geo.encode_ns", "ns", "latency_p50_us", kPan},
      {"geo.chunk_key_ns", "ns", "latency_p50_us", kPan},
      {"common.codec_encode_ns_per_byte", "ns/byte", "throughput_qps",
       kCluster},
      {"common.codec_decode_ns_per_byte", "ns/byte", "throughput_qps",
       kCluster},
      {"common.checksum_ns_per_byte", "ns/byte", "throughput_qps", kCluster},
      {"cluster.ns_per_query", "ns", "throughput_qps", kCluster},
      {"cluster.events_per_query", "count", "throughput_qps", kCluster},
      {"cluster.ns_per_event", "ns", "throughput_qps", kCluster},
      {"cluster.subqueries_per_query", "count", "sim_latency_p99_ms",
       kCluster},
      {"cluster.reroute_ratio", "ratio", "sim_latency_p99_ms", kCluster},
      {"cluster.handoffs", "count", "sim_latency_p99_ms", kCluster},
      {"cluster.cells_replicated", "count", "sim_latency_p99_ms", kCluster},
      {"trace.throughput_qps", "queries/s", "throughput_qps", kAll},
      {"trace.untraced_throughput_qps", "queries/s", "throughput_qps", kAll},
      {"trace.overhead_frac", "ratio", "throughput_qps", kAll},
  };
  return specs;
}

void emit_metrics(const std::vector<MetricSpec>& specs,
                  const std::map<std::string, double>& values,
                  const std::string& workload, Outcome& out) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || name == spec.name;
    if (!known) throw std::logic_error("uncatalogued metric " + name);
  }
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it != values.end()) {
      out.metric(spec.name, it->second, spec.unit);
      continue;
    }
    if (*spec.moves == '\0')  // an end-to-end metric may never be missing
      throw std::logic_error("end-to-end metric " + std::string(spec.name) +
                             " not measured on " + workload);
    out.metric(spec.name, 0.0, spec.unit);
    out.bypassed.push_back(spec.name);
  }
}

void probe_geo(const std::vector<stash::CellKey>& cells, int chunk_precision,
               std::map<std::string, double>& values, Outcome& out) {
  if (cells.empty()) return;
  struct Input {
    stash::LatLng center;
    int precision;
  };
  std::vector<Input> inputs;
  inputs.reserve(cells.size());
  for (const stash::CellKey& key : cells)
    inputs.push_back({key.bounds().center(), key.resolution().spatial});
  // Correctness first (outside the timed loop): encoding a cell's own
  // center must give back the cell.
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (stash::geohash::encode(inputs[i].center, inputs[i].precision) !=
        cells[i].geohash_str()) {
      out.error("geo: encode(center) does not round-trip for " +
                cells[i].label());
      return;
    }
  std::size_t sink = 0;
  values["geo.encode_ns"] = median_ns_per_op([&] {
    for (const Input& in : inputs)
      sink += stash::geohash::encode(in.center, in.precision).size();
    return inputs.size();
  });
  values["geo.chunk_key_ns"] = median_ns_per_op([&] {
    for (const stash::CellKey& key : cells)
      sink += stash::chunk_of(key, chunk_precision).bin().pack();
    return cells.size();
  });
  if (sink == 0) out.error("geo: probe produced nothing");
}

void probe_codec(const std::vector<stash::CellSummaryMap>& answers,
                 std::map<std::string, double>& values, Outcome& out) {
  std::vector<stash::codec::Buffer> encoded(answers.size());
  double bytes = 0;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    encoded[i] = stash::exec::canonical_answer(answers[i]);
    bytes += static_cast<double>(encoded[i].size());
    // Round trip outside the timed loops: decode must give the answer back.
    stash::codec::Reader in(encoded[i]);
    std::size_t cells = 0;
    while (!in.done()) {
      const stash::CellKey key = stash::codec::decode_cell_key(in);
      const stash::Summary summary = stash::codec::decode_summary(in);
      const auto it = answers[i].find(key);
      if (it == answers[i].end() || !(it->second == summary)) {
        out.error("common: codec round trip changed cell " + key.label());
        return;
      }
      ++cells;
    }
    if (cells != answers[i].size()) {
      out.error("common: codec round trip lost cells");
      return;
    }
  }
  if (bytes == 0) return;
  const auto per_byte = [&](auto&& body) {
    return median_ns_per_op([&] {
             for (std::size_t i = 0; i < answers.size(); ++i) body(i);
             return 1;
           }) /
           bytes;
  };
  values["common.codec_encode_ns_per_byte"] = per_byte([&](std::size_t i) {
    sink += stash::exec::canonical_answer(answers[i]).size();
  });
  values["common.codec_decode_ns_per_byte"] = per_byte([&](std::size_t i) {
    stash::codec::Reader in(encoded[i]);
    while (!in.done()) {
      sink += stash::codec::decode_cell_key(in).temporal;
      sink += stash::codec::decode_summary(in).observation_count();
    }
  });
  values["common.checksum_ns_per_byte"] = per_byte([&](std::size_t i) {
    sink += stash::checksum64(encoded[i].data(), encoded[i].size());
  });
  if (sink == 0) out.error("common: probe produced nothing");
}

void probe_handoff(std::size_t workers, std::map<std::string, double>& values) {
  stash::concurrency::WorkerPool pool(
      stash::concurrency::WorkerPool::Config{workers, 256, true, 0, {}});
  std::vector<double> handoff;
  constexpr int kTasks = 2000;
  handoff.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    std::atomic<std::uint64_t> started{0};
    const std::uint64_t t0 = now_ns();
    pool.submit([&started] { started.store(now_ns(), std::memory_order_release); });
    std::uint64_t t1 = 0;
    while ((t1 = started.load(std::memory_order_acquire)) == 0)
      std::this_thread::yield();
    handoff.push_back(static_cast<double>(t1 - t0));
  }
  values["concurrency.handoff_ns"] = median(handoff);
}

void print_calibration(const std::map<std::string, double>& values,
                       Outcome& out) {
  const stash::sim::CostModel model;
  const auto get = [&](const char* name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  struct Row {
    const char* constant;
    double modelled;
    const char* measured_as;
  };
  const Row rows[] = {
      {"scan_ns_per_record", static_cast<double>(model.scan_ns_per_record),
       "storage.scan_ns_per_record"},
      {"cache_probe_ns", static_cast<double>(model.cache_probe_ns),
       "core.chunk_hit_ns"},
      {"cell_insert_ns", static_cast<double>(model.cell_insert_ns),
       "core.absorb_ns_per_cell"},
      {"merge_ns_per_cell", static_cast<double>(model.merge_ns_per_cell),
       "core.rollup_ns_per_cell"},
      {"merge_ns_per_cell", static_cast<double>(model.merge_ns_per_cell),
       "core.collect_ns_per_cell"},
  };
  out.lines.push_back(
      "sim::CostModel calibration (report only; no constant changes):");
  char line[160];
  std::snprintf(line, sizeof line, "  %-20s %10s  %-28s %12s %8s", "constant",
                "model ns", "measured as", "host ns", "ratio");
  out.lines.push_back(line);
  for (const Row& row : rows) {
    const double measured = get(row.measured_as);
    std::snprintf(line, sizeof line, "  %-20s %10.0f  %-28s %12.1f %8.3f",
                  row.constant, row.modelled, row.measured_as, measured,
                  ratio(measured, row.modelled));
    out.lines.push_back(line);
  }
}

}  // namespace perfbench
