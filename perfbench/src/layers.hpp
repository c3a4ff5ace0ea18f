// Metric catalogs and the per-layer probes that call a layer's public
// functions directly: geohash keying (geo), the wire codec and checksum
// (common) and the worker-pool handoff (concurrency).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  /// Per-layer metrics only: the end-to-end metric the layer should move,
  /// and the workloads it is measured on (others report 0: layer bypassed).
  const char* moves;
  const char* on;
};

/// End-to-end metrics, in print order (see BENCHMARK.json).
const std::vector<MetricSpec>& end_to_end_specs();
/// Per-layer metrics of the traced run, in print order.
const std::vector<MetricSpec>& per_layer_specs();

/// Emits every catalogued metric of `specs` into `out` in catalog order,
/// taking values from `values`; a metric missing from `values` is a layer
/// this workload bypasses and reads 0.  Throws if `values` names a metric
/// the catalog does not know.
void emit_metrics(const std::vector<MetricSpec>& specs,
                  const std::map<std::string, double>& values,
                  const std::string& workload, Outcome& out);

/// geo.encode_ns (geohash::encode of each cell's center at the cell's
/// precision, checked against the key) and geo.chunk_key_ns (chunk_of).
void probe_geo(const std::vector<stash::CellKey>& cells, int chunk_precision,
               std::map<std::string, double>& values, Outcome& out);

/// common.codec_encode_ns_per_byte (exec::canonical_answer),
/// common.codec_decode_ns_per_byte (codec decode, checked to round-trip)
/// and common.checksum_ns_per_byte (checksum64) over the given answers.
void probe_codec(const std::vector<stash::CellSummaryMap>& answers,
                 std::map<std::string, double>& values, Outcome& out);

/// concurrency.handoff_ns: median submit-to-start time of an empty task
/// through a WorkerPool with `workers` threads.
void probe_handoff(std::size_t workers, std::map<std::string, double>& values);

/// The sim::CostModel constants next to the measured per-stage costs
/// (a report only: nothing is recalibrated).
void print_calibration(const std::map<std::string, double>& values,
                       Outcome& out);

}  // namespace perfbench
