// The three benchmark workloads.  Each runs --seconds of timed work,
// checks every answer, and returns the end-to-end metrics (untraced) or
// the per-layer metrics (traced).
#pragma once

#include "bench.hpp"

namespace perfbench {

/// pan_small_warm and session_large_evict (exec::ParallelQueryEngine).
Outcome run_exec_workload(const Args& args);

/// cluster_hotspot (cluster::StashCluster on the sim).
Outcome run_cluster_hotspot(const Args& args);

}  // namespace perfbench
