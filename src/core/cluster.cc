#include "core/cluster.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>

#include "common/cache.h"
#include "common/logging.h"

namespace sirius::core {

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin: return "rr";
      case RoutingPolicy::LeastOutstanding: return "least";
      case RoutingPolicy::PowerOfTwo: return "p2c";
      case RoutingPolicy::AffinityHash: return "affinity";
    }
    return "unknown";
}

bool
routingPolicyFromName(const std::string &name, RoutingPolicy &out)
{
    for (size_t i = 0; i < kRoutingPolicies; ++i) {
        const auto policy = static_cast<RoutingPolicy>(i);
        if (name == routingPolicyName(policy)) {
            out = policy;
            return true;
        }
    }
    return false;
}

// --------------------------------------------------------------------
// Routing-policy choice (shared with src/sim — see cluster.h)

size_t
chooseByPolicy(RoutingPolicy policy, const std::vector<uint8_t> &ok,
               size_t ok_count, const std::vector<size_t> &loads,
               uint64_t rr_turn, uint64_t affinity_lo, Rng &rng)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin: {
        size_t turn = static_cast<size_t>(rr_turn % ok_count);
        for (size_t i = 0; i < ok.size(); ++i) {
            if (ok[i] && turn-- == 0)
                return i;
        }
        break;
      }
      case RoutingPolicy::LeastOutstanding: {
        // Rotating scan start so ties (the common idle case) spread
        // round robin instead of piling onto the lowest index.
        const size_t start = static_cast<size_t>(rr_turn % ok.size());
        size_t best = SIZE_MAX;
        size_t best_load = std::numeric_limits<size_t>::max();
        for (size_t k = 0; k < ok.size(); ++k) {
            const size_t i = (start + k) % ok.size();
            if (!ok[i])
                continue;
            if (loads[i] < best_load) {
                best = i;
                best_load = loads[i];
            }
        }
        return best;
      }
      case RoutingPolicy::PowerOfTwo: {
        // Two uniform picks over the routable set, lesser load wins.
        const size_t a_turn = static_cast<size_t>(rng.below(ok_count));
        const size_t b_turn = static_cast<size_t>(rng.below(ok_count));
        size_t a = SIZE_MAX, b = SIZE_MAX;
        size_t seen = 0;
        for (size_t i = 0; i < ok.size(); ++i) {
            if (!ok[i])
                continue;
            if (seen == a_turn)
                a = i;
            if (seen == b_turn)
                b = i;
            ++seen;
        }
        return loads[b] < loads[a] ? b : a;
      }
      case RoutingPolicy::AffinityHash: {
        // Hash over *all* shards (not just routable ones) so the home
        // shard of a query never moves while the fleet is healthy;
        // walk forward around the ring when the home shard is out.
        const size_t home =
            static_cast<size_t>(affinity_lo % ok.size());
        for (size_t k = 0; k < ok.size(); ++k) {
            const size_t i = (home + k) % ok.size();
            if (ok[i])
                return i;
        }
        break;
      }
    }
    return SIZE_MAX;
}

// --------------------------------------------------------------------
// BackendShard

BackendShard::BackendShard(const SiriusPipeline &pipeline,
                           const ConcurrentServerConfig &config,
                           size_t index,
                           const ClusterHealthConfig &health,
                           EventLog *events)
    : server_(pipeline, config), index_(index),
      health_(index, health, events)
{
}

void
BackendShard::setAdminDown(bool down)
{
    adminDown_.store(down, std::memory_order_relaxed);
}

// --------------------------------------------------------------------
// ClusterRouter

/**
 * State shared by every leg (primary, failover, hedge) of one query.
 * One small mutex per query keeps the delivered/legs/hedge transitions
 * trivially race-free; a query runs a whole pipeline execution, so the
 * lock is nanoseconds against milliseconds of work.
 */
struct ClusterRouter::QueryState
{
    Query query;
    Completion done;
    uint64_t id = 0;
    uint64_t traceId = 0; ///< router-allocated, shared by every leg
    double submittedAt = 0.0;
    size_t primaryShard = 0;

    std::mutex m; ///< guards everything below
    bool delivered = false;
    bool closed = false; ///< in-flight slot released
    int legs = 0;
    int legsStarted = 0; ///< ever dispatched; indexes span-id blocks
    int failoversLeft = 0;
    int failovers = 0;
    bool hedgeFired = false;

    /**
     * The router's own trace context for this query (inert when the
     * trace id was not sampled). Route/route_leg spans are recorded
     * through it; span-id base 1<<30 keeps router ids disjoint from
     * every leg's block. TraceContext is not thread-safe, so all use
     * is under `m`.
     */
    TraceContext trace;
    uint32_t rootSpanId = 0;    ///< reserved for the "route" summary
    bool flightOffered = false; ///< completing offer() already made
};

ClusterRouter::ClusterRouter(const SiriusPipeline &pipeline,
                             ClusterConfig config)
    : pipeline_(pipeline), config_(std::move(config)),
      collector_(std::max<size_t>(config_.shard.traceCapacity, 1),
                 config_.shard.traceSampleRate, config_.shard.traceSeed)
{
    if (config_.shards == 0)
        fatal("ClusterRouter requires shards >= 1");
    rng_.reseed(config_.seed);
    shards_.reserve(config_.shards);
    for (size_t i = 0; i < config_.shards; ++i) {
        ConcurrentServerConfig shard_config = config_.shard;
        // Distinct id blocks per shard keep a merged JSONL unambiguous.
        shard_config.traceIdOffset =
            config_.shard.traceIdOffset + i * 10000000ULL;
        if (i < config_.shardFaults.size() &&
            config_.shardFaults[i] != nullptr)
            shard_config.faults = config_.shardFaults[i];
        // The router owns the fleet SLO (per-leg + per-delivery feeds);
        // a shard-level tracker would double-count every leg.
        shard_config.slo = nullptr;
        // One virtual clock for the whole fleet (deadlines, batching
        // windows, hedge due-times all advance together).
        if (config_.clock != nullptr && shard_config.clock == nullptr)
            shard_config.clock = config_.clock;
        // Shards contribute legs to the shared recorder; the router
        // makes the completing offer at delivery.
        shard_config.flight = config_.flight;
        shards_.push_back(std::make_unique<BackendShard>(
            pipeline_, shard_config, i, config_.health,
            config_.events));
        // One clock for the whole fleet: stitched gap arithmetic
        // (route dispatch -> leg start) needs every shard's span
        // timestamps on the router's epoch.
        shards_.back()->server().alignTraceEpoch(collector_);
        routed_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
        failoversFrom_.push_back(
            std::make_unique<std::atomic<uint64_t>>(0));
    }
    // Under an injected virtual clock there is no timer thread: the
    // test (or sim executor) advances the clock and calls pollHedges().
    if (config_.hedgeSeconds > 0.0 && config_.shards > 1 &&
        config_.clock == nullptr)
        hedgeThread_ = std::thread([this] { hedgeLoop(); });
}

ClusterRouter::~ClusterRouter()
{
    {
        std::lock_guard<std::mutex> lock(hedgeMutex_);
        hedgeStop_ = true;
    }
    hedgeWake_.notify_all();
    if (hedgeThread_.joinable())
        hedgeThread_.join();
    drain();
}

size_t
ClusterRouter::pickShard(const Query &query, size_t avoid)
{
    // Routable set: healthy shards first; when none, fall back to
    // ejected (maybe-recovering) shards — never to admin-down ones,
    // which an operator is deliberately draining.
    std::vector<uint8_t> ok(shards_.size(), 0);
    size_t count = 0;
    for (const auto &shard : shards_) {
        if (shard->healthy() && shard->index() != avoid) {
            ok[shard->index()] = 1;
            ++count;
        }
    }
    if (count == 0) {
        for (const auto &shard : shards_) {
            if (!shard->adminDown() && shard->index() != avoid) {
                ok[shard->index()] = 1;
                ++count;
            }
        }
    }
    if (count == 0)
        return SIZE_MAX;

    std::vector<size_t> loads(shards_.size(), 0);
    for (const auto &shard : shards_)
        loads[shard->index()] = shard->outstanding();

    uint64_t turn = 0;
    if (config_.policy == RoutingPolicy::RoundRobin ||
        config_.policy == RoutingPolicy::LeastOutstanding)
        turn = rrCursor_.fetch_add(1, std::memory_order_relaxed);

    uint64_t affinity_lo = 0;
    if (config_.policy == RoutingPolicy::AffinityHash) {
        const CacheKey128 key =
            hashBytes128(query.text.data(), query.text.size());
        affinity_lo = key.lo;
    }

    if (config_.policy == RoutingPolicy::PowerOfTwo) {
        std::lock_guard<std::mutex> lock(rngMutex_);
        return chooseByPolicy(config_.policy, ok, count, loads, turn,
                              affinity_lo, rng_);
    }
    return chooseByPolicy(config_.policy, ok, count, loads, turn,
                          affinity_lo, rng_);
}

bool
ClusterRouter::dispatch(const std::shared_ptr<QueryState> &state,
                        size_t index, bool probe, const char *arm)
{
    BackendShard &shard = *shards_[index];
    uint32_t leg_span = 0;
    uint32_t leg_base = 0;
    {
        std::lock_guard<std::mutex> lock(state->m);
        if (state->closed)
            return false; // delivered + released while we raced here
        ++state->legs;
        // Each leg gets a reserved route_leg span id (recorded when
        // the leg completes) and a disjoint 2^20 span-id block for the
        // shard's own spans, so hedge/failover legs never collide.
        const int leg_index = state->legsStarted++;
        leg_span = state->trace.reserveSpanId();
        leg_base = static_cast<uint32_t>(leg_index + 1) << 20;
    }
    const double dispatched_at = nowSeconds();
    shard.noteDispatch();
    const bool ok = shard.server().submit(
        state->query,
        TraceBinding{state->traceId, leg_base, leg_span},
        [this, state, index, probe, arm, leg_span,
         dispatched_at](const SiriusResult &result) {
            onLegDone(state, index, probe, arm, leg_span,
                      dispatched_at, result);
        });
    if (!ok) {
        shard.noteComplete();
        std::lock_guard<std::mutex> lock(state->m);
        --state->legs;
        return false;
    }
    routed_[index]->fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ClusterRouter::recordLegSpan(const std::shared_ptr<QueryState> &state,
                             size_t index, const char *arm,
                             uint32_t leg_span, double dispatched_at,
                             bool won, const SiriusResult &result)
{
    std::lock_guard<std::mutex> lock(state->m);
    if (!state->trace.active())
        return;
    // A leg finishing after delivery (hedge loser) finds the trace
    // buffer already flushed; re-buffer just this span so the flight
    // recorder can merge it into the kept trace as a late partial.
    const bool late =
        state->flightOffered && config_.flight != nullptr;
    if (late)
        state->trace.bufferSpans();
    state->trace.recordReserved(
        leg_span, SpanKind::Route, "route_leg", dispatched_at,
        nowSeconds() - dispatched_at, state->rootSpanId,
        {{"arm", arm},
         {"shard", std::to_string(index)},
         {"won", won ? "1" : "0"},
         {"outcome", degradationName(result.degradation)}});
    if (late) {
        std::vector<SpanRecord> spans = state->trace.takeBuffered();
        for (const SpanRecord &span : spans)
            collector_.append(span);
        config_.flight->offerPartial(state->traceId,
                                     std::move(spans));
    }
}

void
ClusterRouter::onLegDone(const std::shared_ptr<QueryState> &state,
                         size_t index, bool probe, const char *arm,
                         uint32_t leg_span, double dispatched_at,
                         const SiriusResult &result)
{
    BackendShard &shard = *shards_[index];
    shard.noteComplete();
    const bool failed = result.degradation == Degradation::Failed;
    const bool bad = failed || result.deadlineExpired;
    if (probe)
        shard.recordProbeOutcome(!bad, nowSeconds());
    else
        shard.recordOutcome(bad, nowSeconds());
    // Fleet availability is judged per leg: a failed leg burns error
    // budget even when failover rescues the answer, so a shard outage
    // reaches the burn-rate alerts that the delivered-result counters
    // (kept clean by failover) would hide. Deadline misses are left to
    // the latency objective, which sees the delivered e2e below.
    if (config_.slo != nullptr)
        config_.slo->recordOutcome(!failed);

    bool try_failover = false;
    {
        std::lock_guard<std::mutex> lock(state->m);
        --state->legs;
        if (failed && !state->delivered && state->failoversLeft > 0) {
            --state->failoversLeft;
            try_failover = true;
        }
    }
    if (try_failover) {
        const size_t next = pickShard(state->query, index);
        if (next != SIZE_MAX && dispatch(state, next, false,
                                         "failover")) {
            failovers_.fetch_add(1, std::memory_order_relaxed);
            failoversFrom_[index]->fetch_add(1,
                                             std::memory_order_relaxed);
            recordLegSpan(state, index, arm, leg_span, dispatched_at,
                          false, result);
            std::lock_guard<std::mutex> lock(state->m);
            ++state->failovers;
            return; // the failover leg owns delivery now
        }
        try_failover = false; // nowhere to go: deliver the failure
    }

    bool do_deliver = false;
    bool hedged = false;
    int failover_count = 0;
    {
        std::lock_guard<std::mutex> lock(state->m);
        // A Failed result defers to a still-running leg (a hedge may
        // yet succeed); it is delivered only by the last leg standing.
        if (!state->delivered && (!failed || state->legs == 0)) {
            state->delivered = true;
            do_deliver = true;
            hedged = state->hedgeFired;
            failover_count = state->failovers;
        }
    }
    // The winner's route_leg must land in the trace buffer before the
    // completing flight offer below flushes it.
    recordLegSpan(state, index, arm, leg_span, dispatched_at,
                  do_deliver, result);
    if (do_deliver) {
        const double now = nowSeconds();
        const double e2e = now - state->submittedAt;
        if (hedged && index != state->primaryShard)
            hedgeWins_.fetch_add(1, std::memory_order_relaxed);
        outcomes_[static_cast<size_t>(result.degradation)].fetch_add(
            1, std::memory_order_relaxed);
        if (config_.slo != nullptr)
            config_.slo->recordLatency(e2e);
        {
            std::lock_guard<std::mutex> lock(state->m);
            if (state->trace.active()) {
                state->trace.recordReserved(
                    state->rootSpanId, SpanKind::Route, "route",
                    state->submittedAt, e2e, 0,
                    {{"shard", std::to_string(index)},
                     {"policy", routingPolicyName(config_.policy)},
                     {"failovers", std::to_string(failover_count)},
                     {"hedged", hedged ? "1" : "0"},
                     {"probe", probe ? "1" : "0"},
                     {"outcome",
                      degradationName(result.degradation)}});
                std::vector<SpanRecord> spans =
                    state->trace.takeBuffered();
                if (config_.flight != nullptr) {
                    for (const SpanRecord &span : spans)
                        collector_.append(span);
                    // The completing offer: merges the staged shard
                    // legs and makes the keep decision.
                    config_.flight->offer(state->traceId, e2e,
                                          std::move(spans));
                }
                state->flightOffered = true;
            }
        }
        if (state->done)
            state->done(result);
    }
    finishLeg(state);
}

void
ClusterRouter::finishLeg(const std::shared_ptr<QueryState> &state)
{
    {
        std::lock_guard<std::mutex> lock(state->m);
        if (state->legs != 0 || !state->delivered || state->closed)
            return;
        state->closed = true;
    }
    std::lock_guard<std::mutex> lock(inFlightMutex_);
    if (--inFlight_ == 0)
        inFlightZero_.notify_all();
}

bool
ClusterRouter::submit(const Query &query, Completion done)
{
    auto state = std::make_shared<QueryState>();
    state->query = query;
    state->done = std::move(done);
    state->id = nextQueryId_.fetch_add(1, std::memory_order_relaxed) + 1;
    // The router allocates the one trace id every leg shares. Shards
    // run the same (seed, rate) sampling hash, so their contexts keep
    // or drop the query exactly when the router's does.
    state->traceId = config_.shard.traceIdOffset + state->id;
    state->trace = TraceContext(collector_, state->traceId, 1u << 30);
    if (state->trace.active()) {
        if (config_.flight != nullptr)
            state->trace.bufferSpans();
        state->rootSpanId = state->trace.reserveSpanId();
    }
    state->submittedAt = nowSeconds();
    // A hedged query never also fails over: the hedge is its retry.
    state->failoversLeft =
        config_.hedgeSeconds > 0.0 && config_.shards > 1
        ? 0
        : config_.failoverRetries;

    {
        std::lock_guard<std::mutex> lock(inFlightMutex_);
        ++inFlight_;
    }

    // An ejected shard due for probing gets this query as its probe;
    // failover (or the surviving leg rule) protects the query if the
    // probe fails, so probing risks latency, never the answer.
    bool probe = false;
    size_t target = SIZE_MAX;
    for (const auto &shard : shards_) {
        if (shard->claimProbe(nowSeconds())) {
            target = shard->index();
            probe = true;
            // Probes may fail: give even hedged queries one failover.
            std::lock_guard<std::mutex> lock(state->m);
            state->failoversLeft =
                std::max(state->failoversLeft, 1);
            break;
        }
    }
    if (probe && !dispatch(state, target, true, "probe")) {
        shards_[target]->recordProbeOutcome(false, nowSeconds());
        probe = false;
        target = SIZE_MAX;
    }
    if (!probe) {
        target = pickShard(query, SIZE_MAX);
        // Spill over in load order when the picked queue is full.
        while (target != SIZE_MAX &&
               !dispatch(state, target, false, "primary")) {
            target = pickShard(query, target);
        }
        if (target == SIZE_MAX) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(inFlightMutex_);
            if (--inFlight_ == 0)
                inFlightZero_.notify_all();
            return false;
        }
    }
    state->primaryShard = target;
    accepted_.fetch_add(1, std::memory_order_relaxed);

    if (config_.hedgeSeconds > 0.0 && config_.shards > 1) {
        {
            std::lock_guard<std::mutex> lock(hedgeMutex_);
            hedgePending_.emplace(
                state->submittedAt + config_.hedgeSeconds, state);
        }
        hedgeWake_.notify_one();
    }
    return true;
}

SiriusResult
ClusterRouter::handle(const Query &query)
{
    std::promise<SiriusResult> promise;
    auto future = promise.get_future();
    const Completion done = [&promise](const SiriusResult &result) {
        promise.set_value(result);
    };
    // Closed-loop backpressure: wait for queue space instead of
    // shedding, and undo the rejection submit() counted meanwhile.
    while (!submit(query, done)) {
        rejected_.fetch_sub(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return future.get();
}

void
ClusterRouter::fireDueHedges(double now)
{
    std::unique_lock<std::mutex> lock(hedgeMutex_);
    while (!hedgePending_.empty() &&
           hedgePending_.begin()->first <= now) {
        auto weak = hedgePending_.begin()->second;
        hedgePending_.erase(hedgePending_.begin());
        lock.unlock();

        if (auto state = weak.lock()) {
            bool fire = false;
            {
                std::lock_guard<std::mutex> guard(state->m);
                if (!state->delivered && !state->closed &&
                    !state->hedgeFired) {
                    state->hedgeFired = true;
                    fire = true;
                }
            }
            if (fire) {
                const size_t next =
                    pickShard(state->query, state->primaryShard);
                if (next != SIZE_MAX &&
                    dispatch(state, next, false, "hedge"))
                    hedgesFired_.fetch_add(1,
                                           std::memory_order_relaxed);
            }
        }
        lock.lock();
    }
}

void
ClusterRouter::pollHedges()
{
    if (config_.clock == nullptr)
        return;
    fireDueHedges(nowSeconds());
}

void
ClusterRouter::hedgeLoop()
{
    std::unique_lock<std::mutex> lock(hedgeMutex_);
    while (!hedgeStop_) {
        if (hedgePending_.empty()) {
            hedgeWake_.wait(lock);
            continue;
        }
        const double due = hedgePending_.begin()->first;
        const double now = nowSeconds();
        if (due > now) {
            hedgeWake_.wait_for(
                lock, std::chrono::duration<double>(due - now));
            continue;
        }
        lock.unlock();
        fireDueHedges(now);
        lock.lock();
    }
}

void
ClusterRouter::drain()
{
    std::unique_lock<std::mutex> lock(inFlightMutex_);
    inFlightZero_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ClusterRouter::killShard(size_t index)
{
    shards_.at(index)->setAdminDown(true);
    logMessage(LogLevel::Warn, "cluster: shard " +
                                   std::to_string(index) +
                                   " administratively killed");
    if (config_.events != nullptr)
        config_.events->note(nowSeconds(), "shard_kill",
                             "shard " + std::to_string(index) +
                                 " administratively killed",
                             {{"shard", std::to_string(index)}});
}

void
ClusterRouter::reviveShard(size_t index)
{
    shards_.at(index)->setAdminDown(false);
    logMessage(LogLevel::Info, "cluster: shard " +
                                   std::to_string(index) +
                                   " administratively revived");
    if (config_.events != nullptr)
        config_.events->note(nowSeconds(), "shard_revive",
                             "shard " + std::to_string(index) +
                                 " administratively revived",
                             {{"shard", std::to_string(index)}});
}

void
ClusterRouter::setShardFaults(size_t index, bool enabled)
{
    if (index >= config_.shardFaults.size() ||
        config_.shardFaults[index] == nullptr)
        fatal("setShardFaults: shard " + std::to_string(index) +
              " has no injector in ClusterConfig::shardFaults");
    config_.shardFaults[index]->setEnabled(enabled);
    logMessage(enabled ? LogLevel::Warn : LogLevel::Info,
               "cluster: shard " + std::to_string(index) +
                   (enabled ? " fault injection armed (drill)"
                            : " fault injection disarmed (drill)"));
    if (config_.events != nullptr)
        config_.events->note(nowSeconds(), "drill",
                             "shard " + std::to_string(index) +
                                 (enabled ? " faults armed"
                                          : " faults disarmed"),
                             {{"shard", std::to_string(index)},
                              {"enabled", enabled ? "1" : "0"}});
}

namespace {

void
addCacheStats(CacheStats &into, const CacheStats &other)
{
    into.hits += other.hits;
    into.misses += other.misses;
    into.expired += other.expired;
    into.bypasses += other.bypasses;
    into.insertions += other.insertions;
    into.replaced += other.replaced;
    into.rejected += other.rejected;
    into.evictedLru += other.evictedLru;
    into.evictedExpired += other.evictedExpired;
    into.entries += other.entries;
    into.bytes += other.bytes;
}

} // namespace

ClusterStats
ClusterRouter::snapshot() const
{
    ClusterStats out;
    out.shards.reserve(shards_.size());
    for (const auto &shard : shards_) {
        out.shards.push_back(shard->server().snapshot());
        const auto &s = out.shards.back();
        out.fleet.merge(s.server);
        addCacheStats(out.caches.acousticScores,
                      s.caches.acousticScores);
        addCacheStats(out.caches.answers, s.caches.answers);
        addCacheStats(out.caches.matches, s.caches.matches);
        out.ejections += shard->ejections();
        out.recoveries += shard->recoveries();
        out.probes += shard->probes();
        out.healthyShards += shard->healthy() ? 1 : 0;
        out.traceDropped += s.traceDropped;
    }
    out.traceDropped += collector_.dropped();
    if (config_.slo != nullptr)
        out.slo = config_.slo->snapshot();
    if (config_.flight != nullptr)
        out.flight = config_.flight->stats();
    if (config_.events != nullptr)
        out.events = config_.events->snapshot();
    out.accepted = accepted_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.failovers = failovers_.load(std::memory_order_relaxed);
    out.hedgesFired = hedgesFired_.load(std::memory_order_relaxed);
    out.hedgeWins = hedgeWins_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kDegradationLevels; ++i)
        out.outcomes[i] = outcomes_[i].load(std::memory_order_relaxed);
    exportMetrics(out.metrics);
    out.routerSpans = collector_.snapshot();
    return out;
}

void
ClusterRouter::exportMetrics(MetricsRegistry &registry,
                             const MetricLabels &base) const
{
    const auto labeled = [&base](
        std::initializer_list<std::pair<std::string, std::string>>
            extra) {
        MetricLabels labels = base;
        for (const auto &kv : extra)
            labels.push_back(kv);
        return labels;
    };
    const std::string policy = routingPolicyName(config_.policy);

    registry.gauge("sirius_cluster_shards", base)
        .set(static_cast<double>(shards_.size()));
    registry
        .counter("sirius_trace_dropped_total",
                 labeled({{"collector", "router"}}))
        .add(collector_.dropped());
    if (config_.slo != nullptr)
        config_.slo->exportTo(registry, base);
    if (config_.flight != nullptr)
        config_.flight->exportTo(registry, base);
    if (config_.events != nullptr)
        config_.events->exportTo(registry, base);
    registry.counter("sirius_cluster_accepted_total", base)
        .add(accepted_.load(std::memory_order_relaxed));
    registry.counter("sirius_cluster_rejected_total", base)
        .add(rejected_.load(std::memory_order_relaxed));
    registry
        .counter("sirius_cluster_hedges_total",
                 labeled({{"outcome", "fired"}}))
        .add(hedgesFired_.load(std::memory_order_relaxed));
    registry
        .counter("sirius_cluster_hedges_total",
                 labeled({{"outcome", "win"}}))
        .add(hedgeWins_.load(std::memory_order_relaxed));
    for (size_t i = 0; i < kDegradationLevels; ++i) {
        registry
            .counter("sirius_cluster_queries_total",
                     labeled({{"outcome",
                               degradationName(
                                   static_cast<Degradation>(i))}}))
            .add(outcomes_[i].load(std::memory_order_relaxed));
    }
    for (const auto &shard : shards_) {
        const std::string id = std::to_string(shard->index());
        shard->server().exportMetrics(
            registry, labeled({{"server", "shard" + id}}));
        registry
            .counter("sirius_cluster_routed_total",
                     labeled({{"shard", id}, {"policy", policy}}))
            .add(routed_[shard->index()]->load(
                std::memory_order_relaxed));
        registry
            .counter("sirius_cluster_failovers_total",
                     labeled({{"shard", id}}))
            .add(failoversFrom_[shard->index()]->load(
                std::memory_order_relaxed));
        registry
            .gauge("sirius_cluster_shard_healthy",
                   labeled({{"shard", id}}))
            .set(shard->healthy() ? 1.0 : 0.0);
        registry
            .counter("sirius_cluster_ejections_total",
                     labeled({{"shard", id}}))
            .add(shard->ejections());
        registry
            .counter("sirius_cluster_recoveries_total",
                     labeled({{"shard", id}}))
            .add(shard->recoveries());
        registry
            .counter("sirius_cluster_probes_total",
                     labeled({{"shard", id}}))
            .add(shard->probes());
    }
}

FleetProjection
projectClosedLoopFleet(const std::vector<double> &service_seconds,
                       size_t shards, size_t workers_per_shard,
                       size_t clients_per_shard,
                       size_t queries_per_client)
{
    FleetProjection out;
    if (service_seconds.empty() || shards == 0 ||
        workers_per_shard == 0 || clients_per_shard == 0)
        return out;

    SampleStats sojourns;
    double makespan = 0.0;
    for (size_t s = 0; s < shards; ++s) {
        // One independent node per shard: its own workers, its own
        // closed-loop clients, its own virtual clock.
        std::vector<double> server_free(workers_per_shard, 0.0);
        std::vector<double> client_ready(clients_per_shard, 0.0);
        std::vector<size_t> client_issued(clients_per_shard, 0);
        const size_t total = clients_per_shard * queries_per_client;
        for (size_t q = 0; q < total; ++q) {
            // Next client to issue: earliest ready (FIFO arrival).
            size_t client = 0;
            for (size_t c = 1; c < clients_per_shard; ++c) {
                if (client_issued[c] < queries_per_client &&
                    (client_issued[client] >= queries_per_client ||
                     client_ready[c] < client_ready[client]))
                    client = c;
            }
            size_t worker = 0;
            for (size_t w = 1; w < workers_per_shard; ++w) {
                if (server_free[w] < server_free[worker])
                    worker = w;
            }
            const size_t offset =
                s * clients_per_shard + client; // per-client phase
            const double service =
                service_seconds[(offset + client_issued[client]) %
                                service_seconds.size()];
            const double ready = client_ready[client];
            const double begin = std::max(ready, server_free[worker]);
            const double done = begin + service;
            sojourns.add(done - ready);
            client_ready[client] = done;
            server_free[worker] = done;
            ++client_issued[client];
            makespan = std::max(makespan, done);
        }
    }
    out.completed = sojourns.count();
    out.meanSojournSeconds = sojourns.mean();
    out.p99SojournSeconds = sojourns.percentile(99);
    out.aggregateQps = makespan > 0.0
        ? static_cast<double>(out.completed) / makespan
        : 0.0;
    return out;
}

} // namespace sirius::core
