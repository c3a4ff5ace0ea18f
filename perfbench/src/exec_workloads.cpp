// pan_small_warm and session_large_evict: two closed-loop clients share
// one exec::ParallelQueryEngine with two workers.
//
// A run has four phases:
//   1. A single-client replay through the engine, digest-compared query by
//      query with the exec::run_queries_sim oracle.  Its per-query
//      EvalBreakdowns, priced with the cluster's sim::CostModel service
//      time, give the sim_latency metrics, and the process's peak RSS is
//      read right after it: this phase is sequential, so its footprint
//      (cache plus engine) repeats run to run, which the concurrent
//      phase's allocator-arena footprint does not.
//   2. Timed episodes, each on a freshly set-up engine, until --seconds of
//      timed work is done.  Every answer must reconcile its counters; its
//      fingerprint is kept, and repeats of a query must match it.
//   3. The Basic-mode (no cache) answer of every query, computed on four
//      threads; every timed answer's fingerprint must match it.
//   4. Traced runs only: a sequential replay that calls QueryEngine's
//      plan_partition / evaluate_chunk / absorb itself, in the engine's own
//      order, digest-checked against the oracle, plus the geo, codec and
//      worker-pool probes.
#include <atomic>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "cluster/cluster.hpp"
#include "common/checksum.hpp"
#include "exec/parallel_engine.hpp"
#include "exec/wall_clock.hpp"
#include "geo/geohash.hpp"
#include "layers.hpp"
#include "workload/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace stash;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMinEpisodes = 1;
/// Threads computing the Basic-mode references (after the timed phase).
constexpr std::size_t kCheckThreads = 4;

struct ExecWorkload {
  std::string name;
  std::vector<AggregationQuery> queries;
  /// Per client: indices into `queries`, one pass.
  std::vector<std::vector<std::size_t>> order;
  std::size_t max_cells = 0;
  /// Setup ends with one sequential pass over `queries` (a warm cache).
  bool warm = false;
  /// Passes over its order each client makes per timed episode.
  std::size_t passes = 1;
  /// The single-client sequence the oracle checks; its first `cold_pass`
  /// queries start from a cold cache (the sim_latency sample), and from
  /// `replay_timed_from` on it mirrors the timed phase.
  std::vector<std::size_t> replay;
  std::size_t cold_pass = 0;
  std::size_t replay_timed_from = 0;
};

workload::WorkloadConfig workload_config(std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.seed = mix64(seed ^ 0x7065726662656e63ULL);
  return config;
}

// County + City pan walks (the Fig 6b shape) over a fixed rectangle set
// that fits the cache: after the warm-up every chunk is a hit, so the
// per-query fixed costs dominate.
ExecWorkload make_pan_small_warm(std::uint64_t seed) {
  ExecWorkload w;
  w.name = "pan_small_warm";
  workload::WorkloadGenerator gen(workload_config(seed));
  w.queries = gen.throughput_workload(workload::QueryGroup::County, 48, 8, 0.1);
  const auto city =
      gen.throughput_workload(workload::QueryGroup::City, 48, 8, 0.1);
  w.queries.insert(w.queries.end(), city.begin(), city.end());
  const std::size_t n = w.queries.size();
  for (std::size_t c = 0; c < kClients; ++c) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < n; ++i) order.push_back((i + c * n / kClients) % n);
    w.order.push_back(std::move(order));
  }
  w.max_cells = 10'000'000;
  w.warm = true;
  w.passes = 8;
  for (std::size_t i = 0; i < n; ++i) w.replay.push_back(i);
  w.replay.insert(w.replay.end(), w.order[0].begin(), w.order[0].end());
  w.cold_pass = n;
  w.replay_timed_from = n;
  return w;
}

// Interleaved exploration sessions from a cold cache that holds well under
// half of what they touch: hits, V-B roll-ups and Galileo scans mix within
// each query, and eviction runs throughout.  Sixteen groups of 16
// concurrent users (7 actions each) run back to back, so a run averages
// over 256 sessions: with fewer, longer sessions the seed-to-seed spread
// was too wide to bound a regression.
ExecWorkload make_session_large_evict(std::uint64_t seed) {
  ExecWorkload w;
  w.name = "session_large_evict";
  workload::SessionGenerator gen(workload_config(seed));
  workload::SessionConfig config;
  config.start_group = workload::QueryGroup::State;
  config.min_spatial = 3;
  config.max_spatial = 6;
  config.actions = 7;
  config.seed = mix64(seed ^ 0x73657373ULL);
  for (int group = 0; group < 16; ++group) {
    const auto users = gen.interleaved(config, 16);
    w.queries.insert(w.queries.end(), users.begin(), users.end());
  }
  for (std::size_t i = 0; i < w.queries.size(); ++i) w.replay.push_back(i);
  // Round-robin interleaving: client c serves the sessions of users
  // u with u % kClients == c.
  w.order.resize(kClients);
  for (std::size_t i = 0; i < w.queries.size(); ++i)
    w.order[i % kClients].push_back(i);
  w.max_cells = 200'000;
  w.warm = false;
  w.passes = 1;
  w.cold_pass = w.replay.size();
  w.replay_timed_from = 0;
  return w;
}

sim::SimTime next_time(std::atomic<std::uint64_t>& tick) {
  return static_cast<sim::SimTime>(tick.fetch_add(1) + 1) * sim::kMillisecond;
}

/// The store, graph and engine one episode runs against.  Members are
/// destroyed in reverse order, so the engine (and its pool) goes first.
struct Rig {
  std::shared_ptr<const NamGenerator> generator;
  std::unique_ptr<GalileoStore> store;
  std::unique_ptr<StashGraph> graph;
  std::unique_ptr<exec::ParallelQueryEngine> engine;
  std::atomic<std::uint64_t> tick{0};
};

exec::ExecConfig exec_config() {
  exec::ExecConfig config;
  config.threads = kWorkers;
  return config;
}

StashConfig graph_config(const ExecWorkload& w) {
  StashConfig config;
  config.max_cells = w.max_cells;
  return config;
}

/// The timed set-up: store, graph, engine and (if the workload is warm)
/// one sequential warm-up pass with absorb.
std::unique_ptr<Rig> build_rig(const ExecWorkload& w, double& setup_seconds) {
  const std::uint64_t start = now_ns();
  auto rig = std::make_unique<Rig>();
  rig->generator = std::make_shared<const NamGenerator>();
  rig->store = std::make_unique<GalileoStore>(rig->generator);
  rig->graph = std::make_unique<StashGraph>(graph_config(w));
  rig->engine = std::make_unique<exec::ParallelQueryEngine>(
      *rig->graph, *rig->store, exec_config());
  if (w.warm)
    for (const AggregationQuery& query : w.queries) {
      const Evaluation eval = rig->engine->evaluate(query);
      rig->engine->absorb(eval, query.res, next_time(rig->tick));
    }
  setup_seconds = seconds_since(start);
  return rig;
}

/// Counter reconciliation for one answer; empty when it holds.
std::string reconcile(const Evaluation& eval, const exec::BatchReport& report) {
  const EvalBreakdown& b = eval.breakdown;
  if (!report.complete() || report.first_error || report.deadline_exceeded ||
      !report.incomplete_partitions.empty())
    return "incomplete BatchReport (" + std::to_string(report.chunks_completed) +
           "/" + std::to_string(report.chunks_total) + " chunks)";
  if (b.chunks_total != b.chunks_from_cache + b.chunks_synthesized +
                            b.chunks_scanned + b.chunks_missing)
    return "chunks_total does not equal hits + roll-ups + scans + misses";
  if (b.chunks_total != report.chunks_total)
    return "breakdown and BatchReport disagree on chunks_total";
  if (b.chunks_missing != 0) return "chunks missing in Cached mode";
  if (!eval.corrupt_blocks.empty()) return "corrupt blocks in the answer";
  return {};
}

/// Per client, the fingerprint of its first answer to each query index.
using SeenAnswers = std::vector<std::vector<std::optional<Fingerprint>>>;

struct ClientLog {
  std::vector<double> latency_us;
  std::vector<double> absorb_ns;  // traced episodes only
  std::vector<double> chunks;     // traced episodes only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

struct Episode {
  double wall_seconds = 0;
  std::vector<ClientLog> clients;
  concurrency::WorkerStats pool;  // deltas over the episode
  bool traced = false;

  [[nodiscard]] std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const ClientLog& c : clients) n += c.attempted - c.failed;
    return n;
  }
  [[nodiscard]] double throughput() const {
    return static_cast<double>(completed()) / wall_seconds;
  }
};

/// One closed-loop step: evaluate (timed), check, absorb.  A repeat of a
/// query must match the fingerprint of the client's first answer to it.
void client_query(Rig& rig, const ExecWorkload& w, std::size_t index,
                  std::vector<std::optional<Fingerprint>>& seen, bool traced,
                  ClientLog& log) {
  const AggregationQuery& query = w.queries[index];
  ++log.attempted;
  std::string problem;
  try {
    exec::BatchReport report;
    const std::uint64_t t0 = now_ns();
    const Evaluation eval =
        rig.engine->evaluate(query, EvalMode::Cached, {}, report);
    const std::uint64_t t1 = now_ns();
    log.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    problem = reconcile(eval, report);
    const Fingerprint fp = fingerprint(eval.cells);
    if (!seen[index]) seen[index] = fp;
    if (problem.empty() && !seen[index]->matches(fp))
      problem = "repeat answer differs";
    const std::uint64_t a0 = now_ns();
    rig.engine->absorb(eval, query.res, next_time(rig.tick));
    if (traced) {
      log.absorb_ns.push_back(static_cast<double>(now_ns() - a0));
      log.chunks.push_back(static_cast<double>(report.chunks_total));
    }
  } catch (const std::exception& e) {
    problem = std::string("threw: ") + e.what();
  }
  if (!problem.empty()) {
    ++log.failed;
    if (log.errors.size() < 5)
      log.errors.push_back(w.name + " query " + std::to_string(index) + ": " +
                           problem);
  }
}

concurrency::WorkerStats stats_delta(const concurrency::WorkerStats& after,
                                     const concurrency::WorkerStats& before) {
  concurrency::WorkerStats d;
  d.executed = after.executed - before.executed;
  d.stolen = after.stolen - before.stolen;
  d.parks = after.parks - before.parks;
  d.wakeups = after.wakeups - before.wakeups;
  d.task_exceptions = after.task_exceptions - before.task_exceptions;
  d.submit_shed = after.submit_shed - before.submit_shed;
  d.submit_blocked = after.submit_blocked - before.submit_blocked;
  d.watchdog_stalls = after.watchdog_stalls - before.watchdog_stalls;
  return d;
}

/// All clients start together; the episode's wall time runs from that
/// start until the last client has finished its passes.
Episode run_episode(Rig& rig, const ExecWorkload& w, SeenAnswers& seen,
                    bool traced) {
  Episode episode;
  episode.traced = traced;
  episode.clients.resize(kClients);
  std::atomic<bool> go{false};
  const concurrency::WorkerStats before = rig.engine->total_stats();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t pass = 0; pass < w.passes; ++pass)
        for (const std::size_t index : w.order[c])
          client_query(rig, w, index, seen[c], traced, episode.clients[c]);
    });
  const std::uint64_t start = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  episode.wall_seconds = seconds_since(start);
  episode.pool = stats_delta(rig.engine->total_stats(), before);
  return episode;
}

void collect_errors(const Episode& episode, Outcome& out) {
  for (const ClientLog& c : episode.clients) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    for (const std::string& e : c.errors) out.error(e);
  }
}

/// What StashCluster's QueryStats::latency() charges a query answered by
/// one node, in virtual ms: the request message, the node's service time
/// (StashCluster::service_time: dispatch plus the sim::CostModel probe,
/// disk, scan and merge charges for the EvalBreakdown), the response
/// message sized by its cells, and the front-end merge and render.
/// Computed in double ns rather than whole virtual us.
double modelled_latency_ms(const EvalBreakdown& b, std::size_t answer_cells) {
  const cluster::ClusterConfig defaults;
  const sim::CostModel& cost = defaults.cost;
  const auto n = [](std::size_t count) { return static_cast<double>(count); };
  const auto us = [](sim::SimTime t) { return static_cast<double>(t) * 1e3; };
  const auto ns = [](sim::SimTime t) { return static_cast<double>(t); };
  const auto message = [&](double bytes) {
    return us(cost.net_message_latency) + bytes / cost.net_bytes_per_us * 1e3;
  };
  double t = message(n(defaults.request_bytes));
  t += us(defaults.subquery_overhead);
  t += n(b.cache_probes) * ns(cost.cache_probe_ns);
  t += n(b.scan.blocks_touched) * us(cost.disk_seek);
  t += n(b.scan.bytes_read) / cost.disk_bytes_per_us * 1e3;
  t += n(b.scan.records_scanned) * ns(cost.scan_ns_per_record);
  t += n(b.synthesis_merges) * ns(cost.merge_ns_per_cell);
  t += n(b.cells_from_cache + b.cells_scanned + b.cells_synthesized) *
       ns(cost.merge_ns_per_cell);
  t += message(n(answer_cells * defaults.response_cell_bytes + 128));
  t += us(defaults.frontend_overhead) +
       n(answer_cells) * ns(cost.merge_ns_per_cell);
  return t / 1e6;
}

std::vector<AggregationQuery> replay_queries(const ExecWorkload& w) {
  std::vector<AggregationQuery> seq;
  for (const std::size_t i : w.replay) seq.push_back(w.queries[i]);
  return seq;
}

struct Replay {
  std::vector<std::uint64_t> oracle_digests;
  std::vector<double> sim_latency_ms;
  std::size_t cells_absorbed = 0;
};

/// Phase 1: the single-client wall-clock replay must be digest-equal,
/// query by query, to the sequential sim oracle.
Replay replay_single_client(const ExecWorkload& w, Outcome& out) {
  Replay replay;
  const auto generator = std::make_shared<const NamGenerator>();
  const GalileoStore store(generator);
  const std::vector<AggregationQuery> seq = replay_queries(w);

  StashGraph oracle_graph(graph_config(w));
  replay.oracle_digests =
      exec::run_queries_sim(oracle_graph, store, seq).per_query;

  StashGraph graph(graph_config(w));
  exec::ParallelQueryEngine engine(graph, store, exec_config());
  std::uint64_t digest = kChecksumSeed;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Evaluation eval = engine.evaluate(seq[i]);
    digest = exec::answer_digest(eval.cells, digest);
    if (digest != replay.oracle_digests[i]) {
      out.error(w.name + ": single-client replay diverges from the "
                "run_queries_sim oracle at query " + std::to_string(i));
      break;
    }
    if (i < w.cold_pass)
      replay.sim_latency_ms.push_back(
          modelled_latency_ms(eval.breakdown, eval.cells.size()));
    replay.cells_absorbed +=
        engine.absorb(eval, seq[i].res,
                      static_cast<sim::SimTime>(i + 1) * sim::kMillisecond)
            .cells_absorbed;
  }
  return replay;
}

/// Phase 3: the Basic-mode (no cache) answer of every query must match
/// every client's fingerprint of that query.
void check_against_basic(const ExecWorkload& w, const SeenAnswers& seen,
                         Outcome& out) {
  const std::vector<Fingerprint> reference =
      basic_fingerprints(w.queries, kCheckThreads);
  for (std::size_t i = 0; i < w.queries.size(); ++i)
    for (const auto& client : seen)
      if (client[i] && !client[i]->matches(reference[i])) {
        out.error(w.name + " query " + std::to_string(i) +
                  ": answer differs from Basic mode (cell keys, observation "
                  "counts or values)");
        return;
      }
}

/// Phase 4 (traced runs): the engine's own order, one layer call at a
/// time — plan_partition, evaluate_chunk per chunk, then absorb.
void decomposed_replay(const ExecWorkload& w, const Replay& replay,
                       std::map<std::string, double>& values,
                       std::vector<CellSummaryMap>& sample, Outcome& out) {
  const auto generator = std::make_shared<const NamGenerator>();
  const GalileoStore store(generator);
  StashGraph graph(graph_config(w));
  QueryEngine engine(graph, store);
  const std::vector<AggregationQuery> seq = replay_queries(w);

  std::vector<double> plan_ns;
  std::vector<double> hit_ns;
  std::vector<double> rollup_ns;
  std::vector<double> scan_ns;
  double hit_cells = 0;
  double rollup_cells = 0;
  double records = 0;
  double absorb_ns = 0;
  MaintenanceStats maintenance;
  EvalBreakdown total_breakdown;
  std::size_t sample_cells = 0;
  std::uint64_t digest = kChecksumSeed;

  for (std::size_t i = 0; i < seq.size(); ++i) {
    const AggregationQuery& query = seq[i];
    const bool measured = i >= w.replay_timed_from;
    Evaluation total;
    for (const std::string& partition :
         geohash::covering(query.area, store.partition_prefix_length())) {
      std::uint64_t t0 = now_ns();
      const QueryEngine::PartitionPlan plan =
          engine.plan_partition(partition, query);
      if (measured) plan_ns.push_back(static_cast<double>(now_ns() - t0));
      if (plan.empty) continue;
      Evaluation eval;
      std::set<std::int64_t> days;
      for (const ChunkKey& chunk : plan.chunks) {
        eval.touched_chunks.push_back(chunk);
        t0 = now_ns();
        ChunkEvalResult r = engine.evaluate_chunk(
            partition, query, plan.clipped, chunk, EvalMode::Cached, eval.cells);
        const auto ns = static_cast<double>(now_ns() - t0);
        if (measured) {
          const EvalBreakdown& b = r.breakdown;
          if (b.chunks_from_cache != 0) {
            hit_ns.push_back(ns);
            hit_cells += static_cast<double>(b.cells_from_cache);
          } else if (b.chunks_synthesized != 0) {
            rollup_ns.push_back(ns);
            rollup_cells += static_cast<double>(b.synthesis_merges);
          } else if (b.chunks_scanned != 0) {
            scan_ns.push_back(ns);
            records += static_cast<double>(b.scan.records_scanned);
          }
        }
        eval.breakdown += r.breakdown;
        if (r.fetched) eval.fetched.push_back(std::move(*r.fetched));
        days.insert(r.days_scanned.begin(), r.days_scanned.end());
      }
      eval.breakdown.scan.blocks_touched = days.size();
      // QueryEngine::evaluate's partition-order merge.
      total.breakdown += eval.breakdown;
      for (auto& [key, summary] : eval.cells) {
        auto [it, inserted] = total.cells.try_emplace(key, std::move(summary));
        if (!inserted) it->second.merge(summary);
      }
      std::move(eval.fetched.begin(), eval.fetched.end(),
                std::back_inserter(total.fetched));
      std::move(eval.touched_chunks.begin(), eval.touched_chunks.end(),
                std::back_inserter(total.touched_chunks));
    }
    digest = exec::answer_digest(total.cells, digest);
    if (digest != replay.oracle_digests[i]) {
      out.error(w.name + ": decomposed replay diverges from the untraced "
                "answers at query " + std::to_string(i));
      return;
    }
    const std::uint64_t t0 = now_ns();
    const MaintenanceStats m = engine.absorb(
        total, query.res, static_cast<sim::SimTime>(i + 1) * sim::kMillisecond);
    if (!measured) continue;
    absorb_ns += static_cast<double>(now_ns() - t0);
    maintenance.cells_absorbed += m.cells_absorbed;
    maintenance.cells_evicted += m.cells_evicted;
    maintenance.freshness_updates += m.freshness_updates;
    total_breakdown += total.breakdown;
    if (sample_cells < 200'000) {
      sample_cells += total.cells.size();
      sample.push_back(std::move(total.cells));
    }
  }

  const auto queries = static_cast<double>(seq.size() - w.replay_timed_from);
  const auto chunks = static_cast<double>(total_breakdown.chunks_total);
  const auto sum = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return s;
  };
  values["core.plan_ns"] = median(plan_ns);
  values["core.chunk_hit_ns"] = median(hit_ns);
  values["core.collect_ns_per_cell"] = ratio(sum(hit_ns), hit_cells);
  values["core.chunk_rollup_ns"] = median(rollup_ns);
  values["core.rollup_ns_per_cell"] = ratio(sum(rollup_ns), rollup_cells);
  values["core.chunk_scan_ns"] = median(scan_ns);
  values["core.absorb_ns_per_cell"] =
      ratio(absorb_ns, static_cast<double>(maintenance.cells_absorbed));
  values["core.evicted_per_query"] =
      static_cast<double>(maintenance.cells_evicted) / queries;
  values["core.freshness_updates_per_query"] =
      static_cast<double>(maintenance.freshness_updates) / queries;
  values["core.chunks_total"] = chunks;
  values["core.hit_ratio"] =
      ratio(static_cast<double>(total_breakdown.chunks_from_cache), chunks);
  values["core.rollup_ratio"] =
      ratio(static_cast<double>(total_breakdown.chunks_synthesized), chunks);
  values["core.scan_ratio"] =
      ratio(static_cast<double>(total_breakdown.chunks_scanned), chunks);
  values["storage.scan_ns_per_record"] = ratio(sum(scan_ns), records);
  values["storage.records_per_query"] =
      static_cast<double>(total_breakdown.scan.records_scanned) / queries;
  values["storage.blocks_per_query"] =
      static_cast<double>(total_breakdown.scan.blocks_touched) / queries;
  values["storage.bytes_per_query"] =
      static_cast<double>(total_breakdown.scan.bytes_read) / queries;
}

}  // namespace

Outcome run_exec_workload(const Args& args) {
  const ExecWorkload w = args.workload == "pan_small_warm"
                             ? make_pan_small_warm(args.seed)
                             : make_session_large_evict(args.seed);
  Outcome out;
  out.note("clients", static_cast<double>(kClients));
  out.note("workers", static_cast<double>(kWorkers));
  out.note("queries_per_pass", static_cast<double>(w.queries.size()));
  out.note("passes_per_episode", static_cast<double>(w.passes));
  out.note("max_cells", static_cast<double>(w.max_cells));

  const Replay replay = replay_single_client(w, out);
  const double peak_rss = peak_rss_mb();

  SeenAnswers seen(kClients,
                   std::vector<std::optional<Fingerprint>>(w.queries.size()));
  std::vector<Episode> episodes;
  std::vector<double> setups;
  double setup = 0;
  double timed = 0;
  const std::size_t min_episodes = args.trace ? 2 * kMinEpisodes : kMinEpisodes;
  while (out.correct() &&
         (episodes.size() < min_episodes || timed < args.seconds)) {
    const std::unique_ptr<Rig> rig = build_rig(w, setup);
    setups.push_back(setup);
    const bool traced = args.trace && episodes.size() % 2 == 1;
    episodes.push_back(run_episode(*rig, w, seen, traced));
    timed += episodes.back().wall_seconds;
    collect_errors(episodes.back(), out);
  }
  while (out.correct() && more_setups(setups)) {
    build_rig(w, setup);
    setups.push_back(setup);
  }

  const std::uint64_t check_start = now_ns();
  check_against_basic(w, seen, out);
  out.note("check_seconds", seconds_since(check_start));
  out.note("cells_absorbed", static_cast<double>(replay.cells_absorbed));
  out.note("cache_fit_ratio", ratio(static_cast<double>(w.max_cells),
                                    static_cast<double>(replay.cells_absorbed)));

  std::vector<double> qps;
  std::vector<double> traced_qps;
  std::vector<double> latency;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Episode& e : episodes) {
    (e.traced ? traced_qps : qps).push_back(e.throughput());
    if (e.traced) continue;
    for (const ClientLog& c : e.clients) {
      latency.insert(latency.end(), c.latency_us.begin(), c.latency_us.end());
      attempted += c.attempted;
      failed += c.failed;
    }
  }
  out.note("episodes", static_cast<double>(episodes.size()));
  out.note("timed_seconds", timed);
  out.note("latency_samples", static_cast<double>(latency.size()));
  out.note("sim_latency_samples",
           static_cast<double>(replay.sim_latency_ms.size()));

  std::map<std::string, double> values;
  if (!args.trace) {
    values["setup_s"] = median(setups);
    values["throughput_qps"] = median(qps);
    values["latency_p50_us"] = quantile(latency, 0.50);
    values["latency_p99_us"] = quantile(latency, 0.99);
    values["ok_frac"] = ratio(static_cast<double>(attempted - failed),
                              static_cast<double>(attempted));
    values["peak_rss_mb"] = peak_rss;
    values["sim_latency_p50_ms"] = quantile(replay.sim_latency_ms, 0.50);
    values["sim_latency_p99_ms"] = quantile(replay.sim_latency_ms, 0.99);
    emit_metrics(end_to_end_specs(), values, w.name, out);
    return out;
  }

  std::vector<double> evaluate_ns;
  std::vector<double> absorb_ns;
  std::vector<double> chunks;
  concurrency::WorkerStats pool;
  double traced_queries = 0;
  for (const Episode& e : episodes) {
    if (!e.traced) continue;
    pool += e.pool;
    traced_queries += static_cast<double>(e.completed());
    for (const ClientLog& c : e.clients) {
      for (const double us : c.latency_us) evaluate_ns.push_back(us * 1e3);
      absorb_ns.insert(absorb_ns.end(), c.absorb_ns.begin(), c.absorb_ns.end());
      chunks.insert(chunks.end(), c.chunks.begin(), c.chunks.end());
    }
  }
  values["exec.evaluate_ns"] = median(evaluate_ns);
  values["exec.chunks_per_query"] = mean(chunks);
  values["exec.absorb_ns"] = median(absorb_ns);
  values["concurrency.tasks_per_query"] =
      static_cast<double>(pool.executed) / traced_queries;
  values["concurrency.steal_ratio"] = ratio(static_cast<double>(pool.stolen),
                                            static_cast<double>(pool.executed));
  values["concurrency.parks_per_query"] =
      static_cast<double>(pool.parks) / traced_queries;
  values["concurrency.submit_shed"] = static_cast<double>(pool.submit_shed);
  values["trace.throughput_qps"] = median(traced_qps);
  values["trace.untraced_throughput_qps"] = median(qps);
  values["trace.overhead_frac"] = 1.0 - ratio(median(traced_qps), median(qps));

  std::vector<CellSummaryMap> sample;
  decomposed_replay(w, replay, values, sample, out);
  std::vector<CellKey> keys;
  for (const CellSummaryMap& answer : sample)
    for (const auto& entry : answer) keys.push_back(entry.first);
  probe_geo(keys, StashConfig{}.chunk_precision, values, out);
  probe_codec(sample, values, out);
  probe_handoff(kWorkers, values);
  print_calibration(values, out);
  emit_metrics(per_layer_specs(), values, w.name, out);
  return out;
}

}  // namespace perfbench
