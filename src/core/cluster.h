/**
 * @file
 * Scale-out serving tier: a cluster router in front of M replicated
 * backend shards, each an independent core::ConcurrentServer with its
 * own queue, batcher, and caches.
 *
 * The paper's warehouse-scale analysis (Figures 16/17) never treats one
 * node as the deployment unit: a Sirius service is a fleet of leaf
 * servers behind a load balancer, and the latency/throughput story is
 * told per fleet. This layer makes the unit of composition a whole
 * server. The router owns shard lifecycle and placement:
 *
 *  - routing by a pluggable policy (round robin, least outstanding,
 *    power-of-two-choices, affinity hash — the last keeps cache-friendly
 *    repeats on the same shard so per-shard caches stay warm);
 *  - per-shard health from a rolling window of error/deadline-miss
 *    outcomes, with ejection and probed recovery;
 *  - one-retry failover of Failed results to a healthy replica (every
 *    shard runs the same trained pipeline, so a failover answer is
 *    bitwise-identical to the one the dead shard would have produced);
 *  - optional hedged requests: when a query has been outstanding for a
 *    configured slice of its budget, a second copy is sent to another
 *    shard and the first completion wins.
 *
 * Fleet statistics merge the per-shard ServerStats (common/stats keeps
 * histograms mergeable), export as `sirius_cluster_*` metrics with
 * `shard=` / `policy=` / `outcome=` labels, and record per-query Route
 * spans into a router-level trace collector. docs/SCALING.md is the
 * operator-facing guide.
 */

#ifndef SIRIUS_CORE_CLUSTER_H
#define SIRIUS_CORE_CLUSTER_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/concurrent_server.h"
#include "core/shard_health.h"

namespace sirius::core {

/** How the router picks a shard for each query. */
enum class RoutingPolicy
{
    RoundRobin,       ///< rotate through the healthy shards
    LeastOutstanding, ///< fewest in-flight + queued requests wins
    PowerOfTwo,       ///< two random healthy picks, lesser load wins
    AffinityHash,     ///< hash(query text) -> shard; cache-friendly
};

/** Number of RoutingPolicy values (for sweeps over all policies). */
inline constexpr size_t kRoutingPolicies = 4;

/** Short policy name ("rr", "least", "p2c", "affinity"). */
const char *routingPolicyName(RoutingPolicy policy);

/** Parse a routingPolicyName back; returns false on an unknown name. */
bool routingPolicyFromName(const std::string &name, RoutingPolicy &out);

// ClusterHealthConfig (ejection/probe thresholds) and the rolling-window
// state machine live in core/shard_health.h so the simulation harness
// (src/sim) can run the identical health logic on a virtual clock.

/**
 * Pure routing-policy choice over a routable mask — the decision core
 * of ClusterRouter::pickShard, shared with the deterministic simulator
 * so both tiers route identically.
 *
 * @param ok        per-shard routable mask (1 = may receive the query)
 * @param ok_count  number of set entries in @p ok (> 0)
 * @param loads     per-shard outstanding request counts
 * @param rr_turn   monotonically increasing turn counter (rr/least)
 * @param affinity_lo low 64 bits of the query's content hash (affinity)
 * @param rng       seeded stream for the power-of-two draws
 * @return chosen shard index, or SIZE_MAX when nothing is routable
 */
size_t chooseByPolicy(RoutingPolicy policy, const std::vector<uint8_t> &ok,
                      size_t ok_count, const std::vector<size_t> &loads,
                      uint64_t rr_turn, uint64_t affinity_lo, Rng &rng);

/** Sizing and policy of a ClusterRouter. */
struct ClusterConfig
{
    size_t shards = 2; ///< replicated backend shards (>= 1)
    RoutingPolicy policy = RoutingPolicy::LeastOutstanding;

    /**
     * Applied to every shard: each gets its own queue, workers,
     * batcher, and caches from this one template. The router rewrites
     * `traceIdOffset` per shard (shard i gets base + i * 10^7) so all
     * shards' spans can share one JSONL file without id collisions.
     */
    ConcurrentServerConfig shard;

    /**
     * Re-route a query whose result came back Failed to another healthy
     * shard this many times before delivering the failure. Replicas run
     * identical pipelines, so a failover result is bitwise-identical to
     * what the failed shard would have produced (tests/test_cluster.cc
     * holds this against the e2e goldens).
     */
    int failoverRetries = 1;

    /**
     * Hedged requests: when > 0 and a query has been outstanding this
     * many seconds, send a second copy to another healthy shard and
     * deliver whichever completes first. 0 (the default) disables
     * hedging. Intended for deadline-critical traffic: set it to the
     * tail you can afford, e.g. half the deadline budget. A hedged
     * query never also fails over — the hedge *is* its retry.
     */
    double hedgeSeconds = 0.0;

    ClusterHealthConfig health; ///< ejection + probed recovery knobs

    /**
     * Virtual clock for deterministic tests; null = wall clock. When
     * set, the health windows (ejection cooldowns), hedge due-times and
     * the router's event/SLO timestamps all read this clock, and the
     * hedge timer thread stops sleeping on wall time — the test (or
     * sim executor) advances the clock and calls pollHedges() to fire
     * any hedges that came due. Must outlive the router.
     */
    const ManualTime *clock = nullptr;

    /** Seed of the power-of-two-choices random draws. */
    uint64_t seed = 0xC1057E42ULL;

    /**
     * Per-shard fault-injector overrides for drills and tests: entry i
     * (when present and non-null) replaces `shard.faults` for shard i
     * only, so one replica can be made faulty while the rest stay
     * clean. Not owned; injectors must outlive the router.
     */
    std::vector<FaultInjector *> shardFaults;

    /**
     * Optional fleet-level SLO tracker; not owned. The router feeds it
     * one availability outcome per *leg* (a failed leg burns error
     * budget even when failover rescues the query — that is what makes
     * a shard outage visible to the burn-rate alerts) and one latency
     * observation per *delivered* query. Shards get their `slo` forced
     * to null so nothing is double-counted.
     */
    SloTracker *slo = nullptr;

    /**
     * Optional flight recorder shared by the router and every shard;
     * not owned. Shards contribute their legs' spans with
     * offerPartial(); the router completes each trace with offer() at
     * delivery, so a retained trace holds the route summary, every
     * route_leg, and the winning (plus any merged late) shard spans.
     */
    FlightRecorder *flight = nullptr;

    /**
     * Optional structured event log; not owned. The router writes
     * shard lifecycle transitions into it (shard_eject, shard_recover,
     * shard_kill, shard_revive) so drills can assert on *when* the
     * fleet changed shape, not just on end-of-run counters.
     */
    EventLog *events = nullptr;
};

/**
 * One replicated backend: a ConcurrentServer plus the health state the
 * router keeps about it. Health is judged from a rolling window of
 * outcomes (bad = Failed result or deadline miss): a shard whose bad
 * rate exceeds the threshold is ejected from routing, then probed with
 * single live queries after a cooldown, and rejoins after a run of
 * probe successes. killShard()/reviveShard() on the router layer an
 * administrative switch on top for drills and planned drains.
 */
class BackendShard
{
  public:
    BackendShard(const SiriusPipeline &pipeline,
                 const ConcurrentServerConfig &config, size_t index,
                 const ClusterHealthConfig &health,
                 EventLog *events = nullptr);

    BackendShard(const BackendShard &) = delete;
    BackendShard &operator=(const BackendShard &) = delete;

    ConcurrentServer &server() { return server_; }
    const ConcurrentServer &server() const { return server_; }
    size_t index() const { return index_; }

    /** In-flight + queued requests the router has placed here. */
    size_t outstanding() const
    {
        return outstanding_.load(std::memory_order_relaxed);
    }

    /** True when the router may route new queries here. */
    bool healthy() const
    {
        return !adminDown_.load(std::memory_order_relaxed) &&
               !health_.ejected();
    }

    /** True when killShard() took this shard out administratively. */
    bool adminDown() const
    {
        return adminDown_.load(std::memory_order_relaxed);
    }

    uint64_t ejections() const { return health_.ejections(); }
    uint64_t recoveries() const { return health_.recoveries(); }
    uint64_t probes() const { return health_.probes(); }

  private:
    friend class ClusterRouter;

    void noteDispatch() { outstanding_.fetch_add(1); }
    void noteComplete() { outstanding_.fetch_sub(1); }

    void setAdminDown(bool down);

    /** Fold one outcome into the window; may eject. */
    void recordOutcome(bool bad, double now_seconds)
    {
        health_.recordOutcome(bad, now_seconds);
    }

    /** True when this call won the right to route one probe query. */
    bool claimProbe(double now_seconds)
    {
        return health_.claimProbe(now_seconds, adminDown());
    }

    /** Probe outcome: recover after a run of successes, else re-arm. */
    void recordProbeOutcome(bool ok, double now_seconds)
    {
        health_.recordProbeOutcome(ok, now_seconds);
    }

    ConcurrentServer server_;
    const size_t index_;

    std::atomic<size_t> outstanding_{0};
    std::atomic<bool> adminDown_{false};

    /** The rolling-window eject/probe/recover machine (shared with the
     *  simulator via core/shard_health.h). */
    ShardHealthTracker health_;
};

/** Race-free snapshot of a ClusterRouter's statistics. */
struct ClusterStats
{
    /** Every shard's ServerStats merged into one fleet view. */
    ServerStats fleet;
    /** Every shard's caches summed (affinity keeps these warm). */
    PipelineCacheSnapshot caches;
    std::vector<ConcurrentServerStats> shards; ///< per-shard detail

    uint64_t accepted = 0;   ///< cluster-level admissions
    uint64_t rejected = 0;   ///< every healthy shard's queue was full
    uint64_t failovers = 0;  ///< Failed results re-routed to a replica
    uint64_t hedgesFired = 0;///< hedge legs actually sent
    uint64_t hedgeWins = 0;  ///< hedge leg delivered before the primary
    uint64_t ejections = 0;  ///< health-based removals from routing
    uint64_t recoveries = 0; ///< probed returns to routing
    uint64_t probes = 0;     ///< probe queries sent to ejected shards
    size_t healthyShards = 0;

    /** Cluster-level outcomes of delivered queries, by Degradation. */
    std::array<uint64_t, kDegradationLevels> outcomes{};

    /** Everything above as labeled `sirius_cluster_*` metrics plus the
     *  per-shard server metrics under `server=shard<i>` labels. */
    MetricsRegistry metrics;
    /** The router's Route spans (empty when tracing is disabled). */
    std::vector<SpanRecord> routerSpans;
    /** Spans lost to any trace ring: router collector + every shard. */
    uint64_t traceDropped = 0;
    /** Fleet SLO state (empty when config.slo is null). */
    SloSnapshot slo;
    /** Flight-recorder accounting (zeros when config.flight is null). */
    FlightRecorderStats flight;
    /** Retained events, oldest first (empty when config.events is null). */
    std::vector<EventLog::Event> events;
};

/**
 * The cluster front end: owns M BackendShards and routes every query to
 * one of them (failover and hedging may involve a second). submit() and
 * handle() mirror ConcurrentServer's contract so load generators work
 * against either; drain() blocks until every admitted query — including
 * failover and hedge legs — has completed.
 */
class ClusterRouter
{
  public:
    using Completion = ConcurrentServer::Completion;

    /** @param pipeline trained pipeline shared by every shard; must
     *  outlive the router. */
    ClusterRouter(const SiriusPipeline &pipeline, ClusterConfig config);

    ClusterRouter(const ClusterRouter &) = delete;
    ClusterRouter &operator=(const ClusterRouter &) = delete;

    /** Drains outstanding queries, then stops the shards. */
    ~ClusterRouter();

    /**
     * Admit @p query and route it by the configured policy.
     * @param done invoked once with the delivered result (after any
     *        failover/hedging) on a shard worker thread; may be null
     * @return false when every routable shard's queue was full
     */
    bool submit(const Query &query, Completion done = nullptr);

    /** Closed-loop path: block until served (backpressure, no shed). */
    SiriusResult handle(const Query &query);

    /** Block until every admitted query (and every leg) completed. */
    void drain();

    /** Administratively remove shard @p index from routing (drill /
     *  planned drain). In-flight queries on it still complete. */
    void killShard(size_t index);

    /** Undo killShard(); health-based ejection still applies. */
    void reviveShard(size_t index);

    /**
     * Fault-mode drill switch: arm (or disarm) shard @p index's
     * injector from ClusterConfig::shardFaults and write a "drill"
     * event. Unlike killShard(), an armed shard keeps *receiving*
     * queries and fails them, so the outage is visible to health
     * ejection and the SLO burn-rate alerts instead of being drained
     * cleanly around. Fatal when the shard has no injector configured.
     */
    void setShardFaults(size_t index, bool enabled);

    size_t shardCount() const { return shards_.size(); }
    BackendShard &shard(size_t index) { return *shards_.at(index); }
    const BackendShard &shard(size_t index) const
    {
        return *shards_.at(index);
    }

    /**
     * Clock-mode hedge pump: fire every hedge whose due time has passed
     * on the injected ClusterConfig::clock. No-op under the wall clock
     * (the background hedge thread handles timing there). Tests and the
     * sim executor call this after each ManualTime::advance().
     */
    void pollHedges();

    /**
     * Clock-mode batch pump: flush every shard's expired partial
     * batches (see ConcurrentServer::pollBatches). Drivers advancing
     * the injected clock call this alongside pollHedges() so queries
     * parked in partial batches make progress.
     */
    void
    pollBatches()
    {
        for (auto &shard : shards_)
            shard->server().pollBatches();
    }

    /** Copy of the statistics, consistent under concurrent traffic. */
    ClusterStats snapshot() const;

    /**
     * Export the fleet's metrics into @p registry: per-shard server
     * metrics under `server=shard<i>` plus the `sirius_cluster_*`
     * family under @p base labels.
     */
    void exportMetrics(MetricsRegistry &registry,
                       const MetricLabels &base = {{"cluster",
                                                    "sirius"}}) const;

    /** The router-level collector holding Route spans. */
    const TraceCollector &traces() const { return collector_; }

    const ClusterConfig &config() const { return config_; }

  private:
    /** Per-query state shared by every leg (primary, failover, hedge). */
    struct QueryState;

    /** Healthy-shard pick by policy; @p avoid is excluded when another
     *  choice exists; SIZE_MAX when nothing is routable. */
    size_t pickShard(const Query &query, size_t avoid);

    /** Route one leg of @p state to shard @p index. Returns false when
     *  that shard's queue was full (the leg never started). @p arm
     *  labels the leg's role in the stitched trace ("primary",
     *  "failover", "hedge", "probe"). */
    bool dispatch(const std::shared_ptr<QueryState> &state, size_t index,
                  bool probe, const char *arm);

    void onLegDone(const std::shared_ptr<QueryState> &state, size_t index,
                   bool probe, const char *arm, uint32_t leg_span,
                   double dispatched_at, const SiriusResult &result);

    /** Record one leg's route_leg span (and, for a leg finishing after
     *  delivery, hand it to the flight recorder as a late partial). */
    void recordLegSpan(const std::shared_ptr<QueryState> &state,
                       size_t index, const char *arm, uint32_t leg_span,
                       double dispatched_at, bool won,
                       const SiriusResult &result);

    /** Release the cluster in-flight slot once the last leg finished
     *  after delivery. */
    void finishLeg(const std::shared_ptr<QueryState> &state);

    void hedgeLoop();

    /** Send the hedge leg of every pending entry due at @p now. */
    void fireDueHedges(double now);

    double nowSeconds() const
    {
        return config_.clock != nullptr ? config_.clock->now()
                                        : collector_.nowSeconds();
    }

    const SiriusPipeline &pipeline_;
    ClusterConfig config_;
    std::vector<std::unique_ptr<BackendShard>> shards_;

    std::atomic<uint64_t> nextQueryId_{0};
    std::atomic<uint64_t> rrCursor_{0};
    std::mutex rngMutex_; ///< guards rng_ (p2c draws)
    Rng rng_;

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> failovers_{0};
    std::atomic<uint64_t> hedgesFired_{0};
    std::atomic<uint64_t> hedgeWins_{0};
    std::vector<std::unique_ptr<std::atomic<uint64_t>>> routed_;
    std::vector<std::unique_ptr<std::atomic<uint64_t>>> failoversFrom_;
    std::array<std::atomic<uint64_t>, kDegradationLevels> outcomes_{};

    TraceCollector collector_; ///< Route spans, router-level ids

    std::mutex inFlightMutex_;
    std::condition_variable inFlightZero_;
    size_t inFlight_ = 0;

    // Hedge timer: pending (due time -> query state) entries served by
    // one background thread; stale entries (already delivered) are
    // skipped when they come due.
    std::mutex hedgeMutex_;
    std::condition_variable hedgeWake_;
    std::multimap<double, std::weak_ptr<QueryState>> hedgePending_;
    bool hedgeStop_ = false;
    std::thread hedgeThread_; ///< started only when hedging is on
};

/** Virtual-time projection of a closed-loop fleet run. */
struct FleetProjection
{
    double aggregateQps = 0.0; ///< completed / virtual makespan
    double meanSojournSeconds = 0.0;
    double p99SojournSeconds = 0.0;
    uint64_t completed = 0;
};

/**
 * Closed-loop fleet projection in virtual time: @p shards independent
 * nodes, each with @p workers_per_shard servers and @p clients_per_shard
 * blocking clients replaying *measured* per-query service times
 * (@p service_seconds, cycled round robin with a per-client offset).
 *
 * This is the scale-out counterpart of dcsim::simulateQueueEmpirical's
 * Lindley replay: a fleet's shards are separate machines in the
 * deployment the paper assumes, so their service capacity adds — a
 * property a single-container measurement cannot show once real threads
 * outnumber real cores (the closed-loop qps just time-slices). The projection
 * keeps the *measured* per-query costs and moves only the queueing into
 * virtual time; dcsim::shardedMm1Latency is its analytic cross-check.
 */
FleetProjection projectClosedLoopFleet(
    const std::vector<double> &service_seconds, size_t shards,
    size_t workers_per_shard, size_t clients_per_shard,
    size_t queries_per_client);

} // namespace sirius::core

#endif // SIRIUS_CORE_CLUSTER_H
