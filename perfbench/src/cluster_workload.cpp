// cluster_hotspot: a 120-node StashCluster on the discrete-event sim with
// one host thread (exec_threads = 0, so exec and concurrency are bypassed).
//
// Each round is a Fig 6d hotspot: a warm query over the hot region, then
// 1000 County requests panning around it, open loop at 10 us virtual
// inter-arrival; Zipf County traffic over a fixed region set follows, one
// query at a time; then 40 s of quiet virtual time (TTL purges, cooldowns,
// gossip).  Set-up builds the cluster and warms it with one query per Zipf
// region.
//
// The sim is deterministic, so a run repeats the same rounds on fresh
// clusters: every repetition must reproduce the first one's answers, sim
// latencies and protocol counters exactly.  After the timed repetitions,
// every answer of the first is checked against the Basic-mode (no cache)
// answer of its query.
#include <algorithm>
#include <memory>

#include "cluster/cluster.hpp"
#include "common/zipf.hpp"
#include "layers.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace stash;

constexpr std::size_t kRounds = 100;
constexpr std::size_t kBurst = 1000;
constexpr std::size_t kZipfPerRound = 100;
constexpr std::size_t kZipfRegions = 128;
constexpr double kZipfSkew = 0.6;
constexpr sim::SimTime kInterarrival = 10;  // us
constexpr sim::SimTime kQuiet = 40 * sim::kSecond;
constexpr std::size_t kMinTimedRepetitions = 2;
/// Threads computing the Basic-mode references (after the timed phase).
constexpr std::size_t kCheckThreads = 4;

struct Round {
  AggregationQuery warm;
  std::vector<AggregationQuery> burst;
  std::vector<std::size_t> zipf;  // indices into ClusterWorkload::regions
};

struct ClusterWorkload {
  std::vector<AggregationQuery> regions;
  std::vector<Round> rounds;
  cluster::ClusterConfig config;
};

ClusterWorkload make_cluster_hotspot(std::uint64_t seed) {
  ClusterWorkload w;
  workload::WorkloadConfig wc;
  wc.seed = mix64(seed ^ 0x636c7573746572ULL);
  workload::WorkloadGenerator gen(wc);
  for (std::size_t i = 0; i < kZipfRegions; ++i)
    w.regions.push_back(gen.random_query(workload::QueryGroup::County));
  const ZipfDistribution zipf(kZipfRegions, kZipfSkew);
  Rng rng(mix64(seed ^ 0x7a697066ULL));
  for (std::size_t r = 0; r < kRounds; ++r) {
    Round round;
    round.burst = gen.hotspot_burst(workload::QueryGroup::County, kBurst, 0.1);
    round.warm = round.burst.front();
    round.warm.area = round.warm.area.scaled(16.0);
    for (std::size_t i = 0; i < kZipfPerRound; ++i)
      round.zipf.push_back(zipf.sample(rng));
    w.rounds.push_back(std::move(round));
  }
  w.config.num_nodes = 120;                      // §VIII-A testbed
  w.config.workers_per_node = 8;
  w.config.mode = cluster::SystemMode::Stash;
  w.config.stash.hotspot_queue_threshold = 100;  // §VIII-E
  w.config.exec_threads = 0;
  return w;
}

struct Repetition {
  bool traced = false;
  double setup_seconds = 0;
  double wall_seconds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> host_latency_us;  // Zipf run_query calls
  std::vector<double> sim_latency_ms;   // every timed-phase query
  std::vector<std::size_t> round_ends;  // sim_latency_ms index per round
  std::vector<Fingerprint> answers;     // every answer, submission order
  // Deterministic protocol counters.
  std::uint64_t events = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t cells_replicated = 0;
  std::uint64_t reroutes = 0;
  // Spans (traced repetitions).
  double span_ns = 0;
  double span_queries = 0;
  double span_events = 0;
  double subqueries = 0;
  double rerouted = 0;
  std::vector<CellSummaryMap> sample;

  [[nodiscard]] double throughput() const {
    return static_cast<double>(attempted - failed) / wall_seconds;
  }
  [[nodiscard]] bool same_behaviour(const Repetition& o) const {
    return events == o.events && handoffs == o.handoffs &&
           cells_replicated == o.cells_replicated && reroutes == o.reroutes &&
           sim_latency_ms == o.sim_latency_ms &&
           std::equal(answers.begin(), answers.end(), o.answers.begin(),
                      o.answers.end(),
                      [](const Fingerprint& a, const Fingerprint& b) {
                        return a.matches(b);
                      });
  }
};

/// The mean over rounds of each round's sim-latency quantile.  A round's
/// tail comes from one hotspot, and the pooled tail of all rounds would
/// follow the few worst hot regions of a seed.
double per_round_quantile(const Repetition& rep, double q) {
  std::vector<double> per_round;
  std::size_t begin = 0;
  for (const std::size_t end : rep.round_ends) {
    per_round.push_back(quantile(
        std::vector<double>(rep.sim_latency_ms.begin() +
                                static_cast<std::ptrdiff_t>(begin),
                            rep.sim_latency_ms.begin() +
                                static_cast<std::ptrdiff_t>(end)),
        q));
    begin = end;
  }
  return mean(per_round);
}

/// Every query in the order a repetition submits (and answers) them.
std::vector<AggregationQuery> submission_order(const ClusterWorkload& w) {
  std::vector<AggregationQuery> out = w.regions;
  for (const Round& round : w.rounds) {
    out.push_back(round.warm);
    out.insert(out.end(), round.burst.begin(), round.burst.end());
    for (const std::size_t region : round.zipf) out.push_back(w.regions[region]);
  }
  return out;
}

std::string check_stats(const cluster::QueryStats& stats) {
  if (stats.partial || stats.failed_subqueries != 0 ||
      stats.deadline_subqueries != 0 || stats.corrupt_blocks != 0)
    return "partial answer";
  if (stats.degraded || stats.degraded_subqueries != 0)
    return "degraded answer";
  for (const cluster::PartitionCoverage& c : stats.coverage)
    if (c.kind != cluster::PartitionCoverage::Kind::kExact)
      return "partition " + c.partition + " not served exactly";
  if (stats.completed_at < stats.submitted_at) return "completed before submit";
  return {};
}

class Runner {
 public:
  /// `expected`: the answers every repetition after the first must repeat.
  Runner(const ClusterWorkload& w, Repetition& rep,
         const std::vector<Fingerprint>* expected)
      : w_(w), rep_(rep), expected_(expected) {}

  /// The timed set-up: a fresh cluster warmed with one query per Zipf
  /// region.  Returns its seconds; the warm-up answers are kept for run().
  double setup() {
    const std::uint64_t start = now_ns();
    const auto generator = std::make_shared<const NamGenerator>();
    cluster_ = std::make_unique<cluster::StashCluster>(w_.config, generator);
    warmup_.clear();
    for (const AggregationQuery& region : w_.regions) {
      CellSummaryMap cells;
      const cluster::QueryStats stats = cluster_->run_query(region, &cells);
      warmup_.emplace_back(stats, std::move(cells));
    }
    return seconds_since(start);
  }

  void run() {
    rep_.setup_seconds = setup();
    for (std::size_t i = 0; i < warmup_.size(); ++i)
      answer(warmup_[i].first, warmup_[i].second, false);

    const std::uint64_t completed_before =
        cluster_->metrics().queries_completed;
    const std::uint64_t timed_start = now_ns();
    for (const Round& round : w_.rounds) {
      single(round.warm, false);
      burst(round.burst);
      for (const std::size_t region : round.zipf)
        single(w_.regions[region], true);
      cluster_->loop().run_for(kQuiet);
      rep_.round_ends.push_back(rep_.sim_latency_ms.size());
    }
    rep_.wall_seconds = seconds_since(timed_start);

    const cluster::ClusterMetrics metrics = cluster_->metrics();
    const std::uint64_t submitted = rep_.attempted - w_.regions.size();
    if (metrics.queries_completed - completed_before != submitted)
      error("queries_completed does not equal queries submitted");
    rep_.events = cluster_->loop().executed();
    rep_.handoffs = metrics.handoffs_initiated;
    rep_.cells_replicated = metrics.cells_replicated;
    rep_.reroutes = metrics.reroutes;
  }

 private:
  void error(const std::string& what) {
    if (rep_.errors.size() < 5) rep_.errors.push_back(what);
  }

  void answer(const cluster::QueryStats& stats, const CellSummaryMap& cells,
              bool timed) {
    ++rep_.attempted;
    if (timed) {
      rep_.sim_latency_ms.push_back(sim::to_millis(stats.latency()));
      rep_.subqueries += static_cast<double>(stats.subqueries);
      rep_.rerouted += static_cast<double>(stats.rerouted_subqueries);
    }
    std::string problem = check_stats(stats);
    const std::size_t position = rep_.answers.size();
    rep_.answers.push_back(fingerprint(cells));
    if (problem.empty() && expected_ != nullptr &&
        (position >= expected_->size() ||
         !rep_.answers.back().matches((*expected_)[position])))
      problem = "answer differs from the first repetition";
    if (!problem.empty()) {
      ++rep_.failed;
      error("cluster_hotspot answer " + std::to_string(rep_.answers.size() - 1) +
            ": " + problem);
    }
  }

  /// One span: host ns and sim events of the enclosed layer call.
  template <typename Call>
  void span(std::size_t queries, Call&& call) {
    const std::uint64_t events = cluster_->loop().executed();
    const std::uint64_t t0 = now_ns();
    call();
    if (!rep_.traced) return;
    rep_.span_ns += static_cast<double>(now_ns() - t0);
    rep_.span_queries += static_cast<double>(queries);
    rep_.span_events +=
        static_cast<double>(cluster_->loop().executed() - events);
  }

  void single(const AggregationQuery& query, bool zipf) {
    CellSummaryMap cells;
    cluster::QueryStats stats;
    const std::uint64_t t0 = now_ns();
    span(1, [&] { stats = cluster_->run_query(query, &cells); });
    if (zipf)
      rep_.host_latency_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    answer(stats, cells, true);
    if (rep_.traced && zipf && rep_.sample.size() < 64)
      rep_.sample.push_back(std::move(cells));
  }

  /// StashCluster::run_open_loop, keeping each answer's cells.
  void burst(const std::vector<AggregationQuery>& queries) {
    std::vector<cluster::QueryStats> stats(queries.size());
    std::vector<CellSummaryMap> cells(queries.size());
    std::size_t delivered = 0;
    span(queries.size(), [&] {
      for (std::size_t i = 0; i < queries.size(); ++i)
        cluster_->loop().schedule(
            static_cast<sim::SimTime>(i) * kInterarrival, [&, i] {
              cluster_->submit(
                  queries[i], cluster::StashCluster::RichCallback(
                                  [&, i](const cluster::QueryStats& s,
                                         CellSummaryMap&& c) {
                                    stats[i] = s;
                                    cells[i] = std::move(c);
                                    ++delivered;
                                  }));
            });
      cluster_->loop().run();
    });
    if (delivered != queries.size())
      error("open-loop burst left queries unanswered");
    for (std::size_t i = 0; i < queries.size(); ++i)
      answer(stats[i], cells[i], true);
  }

  const ClusterWorkload& w_;
  Repetition& rep_;
  const std::vector<Fingerprint>* expected_;
  std::unique_ptr<cluster::StashCluster> cluster_;
  std::vector<std::pair<cluster::QueryStats, CellSummaryMap>> warmup_;
};

}  // namespace

Outcome run_cluster_hotspot(const Args& args) {
  const ClusterWorkload w = make_cluster_hotspot(args.seed);
  Outcome out;
  out.note("clients", 1.0);
  out.note("workers", 0.0);
  out.note("nodes", static_cast<double>(w.config.num_nodes));
  out.note("rounds", static_cast<double>(kRounds));
  out.note("queries_per_round",
           static_cast<double>(1 + kBurst + kZipfPerRound));
  out.note("max_cells_per_node", static_cast<double>(w.config.stash.max_cells));

  std::vector<Repetition> reps;
  double timed = 0;
  const std::size_t min_timed =
      args.trace ? 2 * kMinTimedRepetitions : kMinTimedRepetitions;
  while (reps.size() < min_timed || timed < args.seconds) {
    Repetition rep;
    rep.traced = args.trace && reps.size() % 2 == 1;
    Runner(w, rep, reps.empty() ? nullptr : &reps.front().answers).run();
    timed += rep.wall_seconds;
    reps.push_back(std::move(rep));
    if (!reps.back().errors.empty()) break;
  }
  const Repetition& first = reps.front();

  std::vector<double> setups;
  std::vector<double> qps;
  std::vector<double> traced_qps;
  std::vector<double> latency;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Repetition& rep = reps[i];
    out.attempted += rep.attempted;
    out.failed += rep.failed;
    for (const std::string& e : rep.errors) out.error(e);
    if (!rep.same_behaviour(first))
      out.error("cluster_hotspot: repetition " + std::to_string(i) +
                " is not identical to the first (sim counters, latencies or "
                "answers differ)");
    setups.push_back(rep.setup_seconds);
    (rep.traced ? traced_qps : qps).push_back(rep.throughput());
    if (!rep.traced)
      latency.insert(latency.end(), rep.host_latency_us.begin(),
                     rep.host_latency_us.end());
  }
  Repetition scratch;
  while (out.correct() && more_setups(setups))
    setups.push_back(Runner(w, scratch, nullptr).setup());
  const double peak_rss = peak_rss_mb();

  const std::uint64_t check_start = now_ns();
  const std::vector<Fingerprint> reference =
      basic_fingerprints(submission_order(w), kCheckThreads);
  for (std::size_t i = 0; i < reference.size() && out.correct(); ++i)
    if (!first.answers[i].matches(reference[i]))
      out.error("cluster_hotspot answer " + std::to_string(i) +
                ": differs from Basic mode (cell keys, observation counts or "
                "values)");
  out.note("check_seconds", seconds_since(check_start));

  out.note("timed_repetitions", static_cast<double>(reps.size()));
  out.note("timed_seconds", timed);
  out.note("latency_samples", static_cast<double>(latency.size()));
  out.note("sim_latency_samples",
           static_cast<double>(first.sim_latency_ms.size()));
  out.note("sim_events", static_cast<double>(first.events));
  out.note("sim_handoffs", static_cast<double>(first.handoffs));
  out.note("sim_cells_replicated", static_cast<double>(first.cells_replicated));
  out.note("sim_reroutes", static_cast<double>(first.reroutes));

  std::map<std::string, double> values;
  if (!args.trace) {
    values["setup_s"] = median(setups);
    values["throughput_qps"] = median(qps);
    values["latency_p50_us"] = quantile(latency, 0.50);
    values["latency_p99_us"] = quantile(latency, 0.99);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Repetition& rep : reps) {
      attempted += rep.attempted;
      failed += rep.failed;
    }
    values["ok_frac"] = ratio(static_cast<double>(attempted - failed),
                              static_cast<double>(attempted));
    values["peak_rss_mb"] = peak_rss;
    values["sim_latency_p50_ms"] = per_round_quantile(first, 0.50);
    values["sim_latency_p99_ms"] = per_round_quantile(first, 0.99);
    emit_metrics(end_to_end_specs(), values, args.workload, out);
    return out;
  }

  double span_ns = 0;
  double span_queries = 0;
  double span_events = 0;
  const Repetition* traced = nullptr;
  for (const Repetition& rep : reps) {
    if (!rep.traced) continue;
    span_ns += rep.span_ns;
    span_queries += rep.span_queries;
    span_events += rep.span_events;
    traced = &rep;
  }
  if (traced == nullptr) {
    out.error("cluster_hotspot: no traced repetition ran");
    emit_metrics(per_layer_specs(), values, args.workload, out);
    return out;
  }
  values["cluster.ns_per_query"] = ratio(span_ns, span_queries);
  values["cluster.events_per_query"] = ratio(span_events, span_queries);
  values["cluster.ns_per_event"] = ratio(span_ns, span_events);
  values["cluster.subqueries_per_query"] =
      ratio(traced->subqueries,
            static_cast<double>(traced->sim_latency_ms.size()));
  values["cluster.reroute_ratio"] = ratio(traced->rerouted, traced->subqueries);
  values["cluster.handoffs"] = static_cast<double>(traced->handoffs);
  values["cluster.cells_replicated"] =
      static_cast<double>(traced->cells_replicated);
  values["trace.throughput_qps"] = median(traced_qps);
  values["trace.untraced_throughput_qps"] = median(qps);
  values["trace.overhead_frac"] = 1.0 - ratio(median(traced_qps), median(qps));

  std::vector<CellKey> keys;
  for (const CellSummaryMap& answer : traced->sample)
    for (const auto& entry : answer) keys.push_back(entry.first);
  probe_geo(keys, w.config.stash.chunk_precision, values, out);
  probe_codec(traced->sample, values, out);
  emit_metrics(per_layer_specs(), values, args.workload, out);
  return out;
}

}  // namespace perfbench
