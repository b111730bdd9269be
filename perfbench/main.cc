/**
 * @file
 * The repository benchmark: drives a real core::ConcurrentServer or
 * core::ClusterRouter with a seeded load from one process, checks every
 * delivered result against a serial reference, and prints the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run) as one JSON line. perfbench/run.py builds this binary and passes
 * the workload's parameters from perfbench/workloads.json;
 * perfbench/README.md defines every metric.
 *
 * A run has three measured phases on one warmed target, in this order:
 *   capacity  closed loop, one blocking client per worker thread;
 *   low       open loop, Poisson arrivals at the workload's low rate;
 *   high      open loop, Poisson arrivals at the workload's high rate.
 * Open-loop requests are timed from their scheduled due time, so a
 * stalled generator shows up as latency instead of hiding it.
 *
 * Layers are timed from outside, at their public entry points: the
 * pipeline build, submit() and the completion callback, the
 * StageTimings of each result, direct calls to the services for the
 * per-query work counts, and the snapshot() counters.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "common/flight_recorder.h"
#include "common/simd.h"
#include "common/slo.h"
#include "common/strings.h"
#include "core/cluster.h"
#include "core/concurrent_server.h"
#include "core/pipeline.h"
#include "core/query_set.h"
#include "percentile.h"
#include "spans.h"
#include "vision/landmarks.h"
#include "workload.h"

using namespace sirius;
using namespace sirius::core;
using perfbench::Tail;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

[[noreturn]] void
fail(int code, const std::string &message)
{
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
    std::exit(code);
}

// ---------------------------------------------------------------- options

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;

    speech::AsrBackend backend = speech::AsrBackend::Gmm;
    bool voiceOnly = false;  ///< pool = the 32 VC+VQ queries
    double zipfSkew = 0.0;   ///< 0 = uniform draws
    uint64_t zipfOrderSeed = 0; ///< fixes which query holds which rank
    size_t shards = 0;       ///< 0 = one ConcurrentServer
    size_t workers = 3;      ///< per server, or per shard
    bool caches = false;
    bool plane = false;

    double lowQps = 0.0;
    double highQps = 0.0;
    double p99LimitMs = 0.0;
    size_t setupBuilds = 3;
};

/** Shares of --seconds given to the capacity, low and high phases. */
constexpr double kPhaseShares[3] = {0.2, 0.35, 0.45};

/**
 * A run whose generator lag p99 exceeds this is invalid: requests left
 * this late no longer follow the schedule, whatever the program did.
 */
constexpr double kMaxLagMs = 20.0;

Options
parseOptions(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            fail(64, format("unexpected argument '%s'", argv[i]));
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 != 1)
        fail(64, "arguments come in --name value pairs");
    const auto take = [&](const char *name) {
        const auto it = args.find(name);
        if (it == args.end())
            fail(64, format("missing --%s", name));
        std::string value = it->second;
        args.erase(it);
        return value;
    };
    const auto number = [&](const char *name) {
        const std::string text = take(name);
        char *end = nullptr;
        const double value = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
            value < 0.0)
            fail(64, format("--%s wants a number >= 0, got '%s'", name,
                            text.c_str()));
        return value;
    };

    Options o;
    o.workload = take("workload");
    o.seed = static_cast<uint64_t>(number("seed"));
    o.seconds = number("seconds");
    o.trace = number("trace") != 0.0;
    o.traceOut = take("trace-out");
    const std::string backend = take("backend");
    if (backend != "gmm" && backend != "dnn")
        fail(64, "--backend is gmm or dnn");
    o.backend = backend == "dnn" ? speech::AsrBackend::Dnn
                                 : speech::AsrBackend::Gmm;
    const std::string pool = take("pool");
    if (pool != "voice" && pool != "all")
        fail(64, "--pool is voice or all");
    o.voiceOnly = pool == "voice";
    o.zipfSkew = number("zipf-skew");
    o.zipfOrderSeed = static_cast<uint64_t>(number("zipf-order-seed"));
    o.shards = static_cast<size_t>(number("shards"));
    o.workers = static_cast<size_t>(number("workers"));
    o.caches = number("caches") != 0.0;
    o.plane = number("plane") != 0.0;
    o.lowQps = number("low-qps");
    o.highQps = number("high-qps");
    o.p99LimitMs = number("p99-limit-ms");
    o.setupBuilds = static_cast<size_t>(number("setup-builds"));
    if (!args.empty())
        fail(64, format("unknown option --%s", args.begin()->first.c_str()));
    if (o.seconds <= 0.0 || o.workers == 0 || o.setupBuilds == 0 ||
        o.lowQps <= 0.0 || o.highQps <= 0.0 || o.p99LimitMs <= 0.0)
        fail(64, "seconds, workers, setup-builds, rates and the p99 "
                 "limit must be positive");
    return o;
}

// ----------------------------------------------------------------- target

/** The statistics the benchmark reads from snapshot(), fleet-merged. */
struct Counters
{
    std::vector<uint64_t> servedPerShard;
    std::vector<std::vector<double>> servicePerShard; ///< seconds
    LatencyHistogram queueWait;
    BatchSnapshot batching;
    PipelineCacheSnapshot caches;
    uint64_t spansAppended = 0;
    uint64_t traceDropped = 0;
    uint64_t flightRetained = 0;
    uint64_t failovers = 0;
    uint64_t hedges = 0;
};

void
addBatching(BatchSnapshot &into, const BatchSnapshot &from)
{
    for (size_t k = 0; k < kBatchKernels; ++k) {
        into.kernels[k].batches += from.kernels[k].batches;
        into.kernels[k].items += from.kernels[k].items;
        for (size_t r = 0; r < 4; ++r)
            into.kernels[k].flushes[r] += from.kernels[k].flushes[r];
        into.kernels[k].waitSeconds.merge(from.kernels[k].waitSeconds);
    }
}

void
addServer(Counters &into, const ConcurrentServerStats &stats,
          const ConcurrentServer &server)
{
    into.servedPerShard.push_back(stats.server.served);
    into.servicePerShard.push_back(stats.server.serviceSeconds.samples());
    into.queueWait.merge(stats.server.queueWaitSeconds);
    addBatching(into.batching, stats.batching);
    into.spansAppended += server.traces().appended();
}

/**
 * One ConcurrentServer, or a ClusterRouter of `shards` servers, as the
 * workload asks, with the observability plane attached when asked.
 */
class Target
{
  public:
    Target(const SiriusPipeline &pipeline, const Options &options)
    {
        ConcurrentServerConfig config;
        config.workers = options.workers;
        config.cache.enabled = options.caches;
        if (options.plane) {
            // The plane-on arm of bench_fig16: 100% sampling, SLO
            // tracker, flight recorder and event log.
            events_ = std::make_unique<EventLog>(1024);
            slo_ = std::make_unique<SloTracker>(defaultSloConfig(0.25),
                                                events_.get());
            flight_ = std::make_unique<FlightRecorder>();
            config.traceSampleRate = 1.0;
            config.traceCapacity = 1 << 14;
            config.slo = slo_.get();
            config.flight = flight_.get();
        }
        if (options.shards == 0) {
            server_ = std::make_unique<ConcurrentServer>(pipeline, config);
            return;
        }
        ClusterConfig cluster;
        cluster.shards = options.shards;
        cluster.policy = RoutingPolicy::AffinityHash;
        cluster.shard = config;
        cluster.shard.slo = nullptr;
        cluster.slo = slo_.get();
        cluster.flight = flight_.get();
        cluster.events = events_.get();
        router_ = std::make_unique<ClusterRouter>(pipeline, cluster);
    }

    Target(const Target &) = delete;
    Target &operator=(const Target &) = delete;

    bool
    submit(const Query &query, ConcurrentServer::Completion done)
    {
        return server_ ? server_->submit(query, std::move(done))
                       : router_->submit(query, std::move(done));
    }

    SiriusResult
    handle(const Query &query)
    {
        return server_ ? server_->handle(query) : router_->handle(query);
    }

    void
    drain()
    {
        if (server_)
            server_->drain();
        else
            router_->drain();
    }

    size_t
    workers() const
    {
        if (server_)
            return server_->workerCount();
        size_t total = 0;
        for (size_t i = 0; i < router_->shardCount(); ++i)
            total += router_->shard(i).server().workerCount();
        return total;
    }

    Counters
    counters() const
    {
        Counters c;
        if (server_) {
            const auto stats = server_->snapshot();
            addServer(c, stats, *server_);
            c.caches = stats.caches;
            c.traceDropped = stats.traceDropped;
            c.flightRetained = stats.flight.retained;
            return c;
        }
        const auto stats = router_->snapshot();
        for (size_t i = 0; i < stats.shards.size(); ++i)
            addServer(c, stats.shards[i], router_->shard(i).server());
        c.spansAppended += router_->traces().appended();
        c.caches = stats.caches;
        c.traceDropped = stats.traceDropped;
        c.flightRetained = stats.flight.retained;
        c.failovers = stats.failovers;
        c.hedges = stats.hedgesFired;
        return c;
    }

  private:
    // The plane outlives the server or router that reports into it.
    std::unique_ptr<EventLog> events_;
    std::unique_ptr<SloTracker> slo_;
    std::unique_ptr<FlightRecorder> flight_;
    std::unique_ptr<ConcurrentServer> server_;
    std::unique_ptr<ClusterRouter> router_;
};

// -------------------------------------------------------------- reference

/** What the serial pipeline returns for one distinct query. */
struct Reference
{
    SiriusResult result;
    bool truth = false; ///< matches ground truth (SiriusPipeline::accuracy)
};

bool
matchesTruth(const Query &query, const SiriusResult &result)
{
    if (query.type == QueryType::VoiceCommand)
        return result.queryClass == QueryClass::Action &&
            toLower(result.action) == toLower(query.text);
    return result.queryClass == QueryClass::Question &&
        toLower(result.answer).find(query.expectedAnswer) !=
            std::string::npos;
}

bool
sameOutput(const SiriusResult &a, const SiriusResult &b)
{
    return a.transcript == b.transcript && a.queryClass == b.queryClass &&
        a.action == b.action && a.answer == b.answer &&
        a.matchedLandmark == b.matchedLandmark;
}

/** Per-query work counts and input synthesis time, from direct calls. */
struct LayerWork
{
    double synthSeconds = 0.0;
    double frames = 0.0;
    double filterHits = 0.0;
    double docsExamined = 0.0;
    double keypoints = 0.0;
};

LayerWork
measureLayerWork(const SiriusPipeline &pipeline, const Query &query,
                 const SiriusResult &reference)
{
    LayerWork work;
    std::vector<double> synth;
    for (int rep = 0; rep < 3; ++rep) {
        const double start = now();
        const auto wave = pipeline.asr().synthesize(query.text);
        if (query.type == QueryType::VoiceImageQuery) {
            const auto image = vision::generateQueryView(query.landmarkId);
            if (rep == 0)
                work.keypoints = static_cast<double>(
                    pipeline.imm().match(image).queryKeypoints);
        }
        synth.push_back(now() - start);
        if (rep == 0)
            work.frames =
                static_cast<double>(pipeline.asr().transcribe(wave).frames);
    }
    std::sort(synth.begin(), synth.end());
    work.synthSeconds = synth[1];
    if (query.type != QueryType::VoiceCommand) {
        const auto qa = pipeline.qa().answer(reference.augmentedQuestion);
        work.filterHits = static_cast<double>(qa.filterHits);
        work.docsExamined = static_cast<double>(qa.docsExamined);
    }
    return work;
}

// --------------------------------------------------------------- requests

/** Spans per request: request, lag, and three stages of leaves. */
constexpr size_t kSpanSlots = 16;

/**
 * The phases alternate in rounds of about this many seconds, so each
 * phase samples the whole run rather than one stretch of it: on a host
 * whose speed drifts over seconds, back-to-back phases would each see
 * a different machine.
 */
constexpr double kRoundSeconds = 3.0;

struct Run;

struct Request
{
    size_t item = 0;
    double due = 0.0;       ///< scheduled send time (closed loop: sent)
    double submitted = 0.0; ///< when submit() was called
    double done = 0.0;      ///< completion callback
    bool accepted = false;
    bool completed = false;
    bool matches = false;
    bool degraded = false;
    bool failed = false;
    bool truth = false;
    StageTimings timings;
    /** Open loop: where the completion callback finds its context,
     *  so the callback captures one pointer and never allocates. */
    const Run *run = nullptr;
    perfbench::SpanRecord *spans = nullptr; ///< kSpanSlots; traced only
};

/** Everything one phase (capacity, low or high) gathered. */
struct Phase
{
    const char *name = "";
    std::vector<Request> requests;
    std::vector<perfbench::SpanRecord> spans; ///< kSpanSlots per request
    std::vector<size_t> slices;      ///< first request of each slice
    std::vector<double> busySeconds; ///< closed loop, per slice
    std::vector<uint64_t> queueWait; ///< histogram buckets gained
    std::vector<double> service;     ///< service seconds, as served
    perfbench::AllocCounts allocs;   ///< allocations while it ran
};

/** Shared read-only state of a run. */
struct Run
{
    const Options *options = nullptr;
    std::vector<Query> pool;
    std::vector<Reference> reference;
};

/**
 * Lay the request's spans into its kSpanSlots slots. StageTimings
 * carry durations only, so the stages are placed back to back in
 * pipeline order (ASR, IMM, QA) ending at completion, and their leaves
 * back to back inside them. The request's self time is then everything
 * but generator lag and stage work: queue wait, input synthesis, batch
 * windows and glue.
 */
void
recordSpans(perfbench::SpanRecord *slot, const Request &r)
{
    using perfbench::SpanRecord;
    slot[0] = SpanRecord{0, -1, "request", r.due, r.done};
    if (r.submitted > r.due)
        slot[1] = SpanRecord{0, 0, "gen.lag", r.due, r.submitted};

    struct Stage
    {
        size_t at;
        const char *name;
        const char *leafNames[5];
        double leaves[5];
    };
    const auto &t = r.timings;
    const Stage stages[3] = {
        {2, "asr", {"audio.mfcc", "speech.score", "speech.viterbi"},
         {t.asr.featureExtraction, t.asr.scoring, t.asr.search}},
        {6, "imm", {"vision.fe", "vision.fd", "vision.ann"},
         {t.imm.featureExtraction, t.imm.featureDescription,
          t.imm.matching}},
        {10, "qa", {"qa.stemmer", "qa.regex", "qa.crf", "qa.search",
                    "qa.select"},
         {t.qa.stemmer, t.qa.regex, t.qa.crf, t.qa.search, t.qa.select}},
    };
    double cursor = r.done - t.total();
    for (const Stage &stage : stages) {
        double total = 0.0;
        for (double leaf : stage.leaves)
            total += leaf;
        if (total <= 0.0)
            continue;
        slot[stage.at] = SpanRecord{0, 0, stage.name, cursor,
                                    cursor + total};
        for (size_t k = 0; k < 5 && stage.leafNames[k] != nullptr; ++k) {
            slot[stage.at + 1 + k] =
                SpanRecord{0, static_cast<int64_t>(stage.at),
                           stage.leafNames[k], cursor,
                           cursor + stage.leaves[k]};
            cursor += stage.leaves[k];
        }
    }
}

/** Fold one delivered result into its request record. */
void
complete(Request &r, const Run &run, const SiriusResult &result)
{
    r.done = now();
    r.completed = true;
    r.timings = result.timings;
    r.degraded = result.degraded();
    r.failed = result.degradation == Degradation::Failed;
    const Reference &ref = run.reference[r.item];
    r.matches = sameOutput(result, ref.result);
    r.truth = r.matches ? ref.truth : matchesTruth(run.pool[r.item], result);
}

/** Bucket counts @p after gained over @p before. */
std::vector<uint64_t>
bucketsGained(const LatencyHistogram &before, const LatencyHistogram &after)
{
    std::vector<uint64_t> gained(after.buckets());
    for (size_t b = 0; b < gained.size(); ++b)
        gained[b] = after.bucketCount(b) - before.bucketCount(b);
    return gained;
}

/**
 * Quantile @p q of bucket @p counts laid out like @p layout: the upper
 * edge of the bucket holding the q-th sample (the histogram's own
 * conservative rule). 0 when empty.
 */
double
bucketQuantile(const std::vector<uint64_t> &counts,
               const LatencyHistogram &layout, double q)
{
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
    const double growth = layout.bucketLow(2) / layout.bucketLow(1);
    uint64_t seen = 0;
    size_t b = 0;
    for (; b < counts.size(); ++b)
        if ((seen += counts[b]) >= rank)
            break;
    return b + 1 < counts.size() ? layout.bucketLow(b + 1)
                                 : layout.bucketLow(counts.size() - 1) *
            growth;
}

/**
 * Run @p body as one slice of @p phase and add what the target's
 * counters and the allocation hook gained meanwhile.
 */
template <typename Body>
void
slice(Phase &phase, Target &target, Body &&body)
{
    const Counters before = target.counters();
    const perfbench::AllocCounts allocs = perfbench::allocCounts();
    body();
    const perfbench::AllocCounts allocsAfter = perfbench::allocCounts();
    const Counters after = target.counters();

    phase.allocs.allocations += allocsAfter.allocations - allocs.allocations;
    phase.allocs.bytes += allocsAfter.bytes - allocs.bytes;
    const auto gained = bucketsGained(before.queueWait, after.queueWait);
    phase.queueWait.resize(gained.size());
    for (size_t b = 0; b < gained.size(); ++b)
        phase.queueWait[b] += gained[b];
    for (size_t s = 0; s < after.servicePerShard.size(); ++s) {
        const auto &samples = after.servicePerShard[s];
        phase.service.insert(
            phase.service.end(),
            samples.begin() + static_cast<std::ptrdiff_t>(
                                  before.servicePerShard[s].size()),
            samples.end());
    }
}

/**
 * Closed loop for @p seconds: one blocking client per worker thread,
 * each drawing its own seeded query stream.
 */
void
closedSlice(Phase &phase, Target &target, const Run &run,
            std::vector<perfbench::Deck> &decks, double seconds, bool traced)
{
    const size_t clients = decks.size();
    std::vector<std::vector<Request>> served(clients);
    std::vector<std::vector<perfbench::SpanRecord>> spans(clients);
    double start = 0.0;
    slice(phase, target, [&] {
        start = now();
        const double stop = start + seconds;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                while (now() < stop) {
                    Request r;
                    r.item = decks[c].next();
                    r.due = r.submitted = now();
                    r.accepted = true;
                    complete(r, run, target.handle(run.pool[r.item]));
                    if (traced) {
                        spans[c].resize(spans[c].size() + kSpanSlots);
                        recordSpans(&spans[c][spans[c].size() - kSpanSlots],
                                    r);
                    }
                    served[c].push_back(r);
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
    });
    double last = start;
    phase.slices.push_back(phase.requests.size());
    for (size_t c = 0; c < clients; ++c) {
        for (const auto &r : served[c])
            last = std::max(last, r.done);
        phase.requests.insert(phase.requests.end(), served[c].begin(),
                              served[c].end());
        phase.spans.insert(phase.spans.end(), spans[c].begin(),
                           spans[c].end());
    }
    phase.busySeconds.push_back(last - start);
}

/**
 * Open loop: one generator thread sends each request at its due time
 * whether or not earlier ones have completed, then waits for all.
 */
void
openSlice(Phase &phase, Target &target, const Run &run,
          const std::vector<perfbench::Arrival> &schedule, bool traced)
{
    const size_t first = phase.requests.size();
    phase.slices.push_back(first);
    phase.requests.resize(first + schedule.size());
    if (traced)
        phase.spans.resize(phase.requests.size() * kSpanSlots);
    Request *requests = phase.requests.data() + first;
    for (size_t i = 0; i < schedule.size(); ++i) {
        requests[i].item = schedule[i].item;
        requests[i].run = &run;
        if (traced)
            requests[i].spans = &phase.spans[(first + i) * kSpanSlots];
    }
    slice(phase, target, [&] {
        const double start = now();
        const auto at = [&](double seconds) {
            return kEpoch + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(start +
                                                              seconds));
        };
        for (size_t i = 0; i < schedule.size(); ++i) {
            Request *r = &requests[i];
            r->due = start + schedule[i].dueSeconds;
            std::this_thread::sleep_until(at(schedule[i].dueSeconds));
            r->submitted = now();
            r->accepted = target.submit(
                run.pool[r->item], [r](const SiriusResult &result) {
                    complete(*r, *r->run, result);
                    if (r->spans != nullptr)
                        recordSpans(r->spans, *r);
                });
        }
        target.drain();
    });
}

/** The three phases of one pass and the counters around it. */
struct PassResult
{
    std::vector<Phase> phases; ///< capacity, low, high
    Counters first;
    Counters last;
};

PassResult
runPass(Target &target, const Run &run, const perfbench::QueryDraw &draw,
        double seconds, bool traced)
{
    const Options &o = *run.options;
    PassResult pass;
    pass.phases.resize(3);
    pass.phases[0].name = "capacity";
    pass.phases[1].name = "low";
    pass.phases[2].name = "high";
    std::vector<perfbench::Deck> clients;
    for (size_t c = 0; c < target.workers(); ++c)
        clients.emplace_back(draw, o.seed, 100 + c);
    perfbench::Deck lowDeck(draw, o.seed, 2);
    perfbench::Deck highDeck(draw, o.seed, 3);
    perfbench::Stream lowGaps(o.seed, 4);
    perfbench::Stream highGaps(o.seed, 5);
    const size_t rounds = std::max<size_t>(
        1, static_cast<size_t>(std::lround(seconds / kRoundSeconds)));
    const double round = seconds / static_cast<double>(rounds);
    pass.first = target.counters();
    for (size_t k = 0; k < rounds; ++k) {
        closedSlice(pass.phases[0], target, run, clients,
                    round * kPhaseShares[0], traced);
        openSlice(pass.phases[1], target, run,
                  perfbench::poissonSchedule(
                      o.lowQps, round * kPhaseShares[1], lowDeck, lowGaps),
                  traced);
        openSlice(pass.phases[2], target, run,
                  perfbench::poissonSchedule(
                      o.highQps, round * kPhaseShares[2], highDeck,
                      highGaps),
                  traced);
    }
    pass.last = target.counters();
    return pass;
}

// ---------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value = 0.0;
    const char *unit = "";
    size_t samples = 0;
    std::string note;
};

double
ms(double seconds)
{
    return seconds * 1e3;
}

std::string
tailNote(const Tail &tail)
{
    return format("(p%.1f)", tail.percentile);
}

/** Outcome tally of the requests sent in some phases. */
struct Tally
{
    uint64_t sent = 0;
    uint64_t shed = 0;
    uint64_t failed = 0;
    uint64_t degraded = 0;
    uint64_t mismatched = 0;
    uint64_t delivered = 0;
    uint64_t truthful = 0;

    uint64_t
    errors() const
    {
        return shed + failed + degraded + mismatched;
    }

    void
    add(const Phase &phase)
    {
        for (const auto &r : phase.requests) {
            ++sent;
            shed += !r.accepted;
            if (!r.completed)
                continue;
            ++delivered;
            failed += r.failed;
            degraded += r.degraded && !r.failed;
            mismatched += !r.matches;
            truthful += r.truth;
        }
    }
};

/** The end-to-end numbers of one pass. */
struct Summary
{
    double capacity = 0.0;
    size_t capacityRequests = 0;
    Tail p50Low, p99Low, p50High, p99High;
    double sloShareHigh = 0.0;
    Tail lagP50, lagP99;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** One past the last request of slice @p k. */
size_t
sliceEnd(const Phase &phase, size_t k)
{
    return k + 1 < phase.slices.size() ? phase.slices[k + 1]
                                       : phase.requests.size();
}

/** Sojourn times of the delivered requests in [begin, end). */
std::vector<double>
sojourns(const Phase &phase, size_t begin, size_t end)
{
    std::vector<double> out;
    for (size_t i = begin; i < end; ++i)
        if (phase.requests[i].completed)
            out.push_back(phase.requests[i].done - phase.requests[i].due);
    return out;
}

std::vector<double>
sojourns(const Phase &phase)
{
    return sojourns(phase, 0, phase.requests.size());
}

/**
 * Median over the phase's slices of each slice's median sojourn: a
 * dip in machine speed that spans a few slices moves it less than it
 * moves the pooled median.
 */
Tail
medianOfSlices(const Phase &phase)
{
    std::vector<double> medians;
    Tail tail;
    for (size_t k = 0; k < phase.slices.size(); ++k) {
        const auto samples =
            sojourns(phase, phase.slices[k], sliceEnd(phase, k));
        tail.samples += samples.size();
        if (!samples.empty())
            medians.push_back(median(samples));
    }
    tail.percentile = 50.0;
    tail.value = median(medians);
    return tail;
}

Summary
summarize(const PassResult &pass, const Options &o)
{
    const Phase &capacity = pass.phases[0];
    const Phase &low = pass.phases[1];
    const Phase &high = pass.phases[2];
    Summary s;
    std::vector<double> rates;
    for (size_t k = 0; k < capacity.slices.size(); ++k)
        if (capacity.busySeconds[k] > 0.0)
            rates.push_back(static_cast<double>(sliceEnd(capacity, k) -
                                                capacity.slices[k]) /
                            capacity.busySeconds[k]);
    s.capacity = median(rates);
    s.capacityRequests = capacity.requests.size();
    s.p50Low = medianOfSlices(low);
    s.p99Low = perfbench::tailOf(sojourns(low), 99.0);
    s.p50High = medianOfSlices(high);
    s.p99High = perfbench::tailOf(sojourns(high), 99.0);

    std::vector<double> lag;
    uint64_t met = 0;
    for (const Phase *phase : {&low, &high})
        for (const auto &r : phase->requests)
            lag.push_back(r.submitted - r.due);
    for (const auto &r : high.requests)
        met += r.completed && r.matches && !r.degraded &&
            ms(r.done - r.due) <= o.p99LimitMs;
    s.lagP50 = perfbench::tailOf(lag, 50.0);
    s.lagP99 = perfbench::tailOf(lag, 99.0);
    s.sloShareHigh = high.requests.empty()
        ? 0.0
        : static_cast<double>(met) /
            static_cast<double>(high.requests.size());
    return s;
}

void
printPhases(const PassResult &pass, const char *label)
{
    for (const auto &phase : pass.phases) {
        Tally t;
        t.add(phase);
        std::printf("phase %-8s %-9s sent=%llu succeeded=%llu failed=%llu\n",
                    label, phase.name,
                    static_cast<unsigned long long>(t.sent),
                    static_cast<unsigned long long>(t.sent - t.errors()),
                    static_cast<unsigned long long>(t.errors()));
    }
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric>
endToEndMetrics(const Summary &s, const PassResult &pass,
                const std::vector<double> &setup, const Tally &all,
                const Options &o)
{
    const double accuracy = all.delivered == 0
        ? 0.0
        : static_cast<double>(all.truthful) /
            static_cast<double>(all.delivered);
    return {
        {"setup_s", median(setup), "s", setup.size(), "(median)"},
        {"p50_ms.low", ms(s.p50Low.value), "ms", s.p50Low.samples,
         "(median of slices)"},
        {"p50_ms.high", ms(s.p50High.value), "ms", s.p50High.samples,
         "(median of slices)"},
        {"slo_share.high", s.sloShareHigh, "ratio",
         pass.phases[2].requests.size(),
         format("(limit %.1f ms)", o.p99LimitMs)},
        {"answer_accuracy", accuracy, "ratio", all.delivered, ""},
        {"rss_mb", peakRssMb(), "MB", 1, "(peak)"},
    };
}

/**
 * The traced pass's spans of delivered requests, unused slots dropped,
 * parents made absolute and requests numbered; @p delivered counts
 * the requests.
 */
std::vector<perfbench::SpanRecord>
compactSpans(const std::vector<Phase> &phases, size_t &delivered)
{
    std::vector<perfbench::SpanRecord> spans;
    delivered = 0;
    for (const auto &phase : phases) {
        for (size_t i = 0; i < phase.requests.size(); ++i) {
            if (!phase.requests[i].completed)
                continue;
            ++delivered;
            const auto *slot = &phase.spans[i * kSpanSlots];
            int64_t remap[kSpanSlots];
            for (size_t k = 0; k < kSpanSlots; ++k) {
                remap[k] = -1;
                if (slot[k].name == nullptr)
                    continue;
                remap[k] = static_cast<int64_t>(spans.size());
                auto span = slot[k];
                if (span.parent >= 0)
                    span.parent = remap[span.parent];
                span.request = delivered;
                spans.push_back(span);
            }
        }
    }
    return spans;
}

/** Mean self time per request of the spans of each name, in ms. */
std::map<std::string, double>
meanSelfMs(const std::vector<perfbench::SpanRecord> &spans, size_t requests)
{
    const auto self = perfbench::selfTimes(spans);
    std::map<std::string, double> total;
    for (size_t i = 0; i < spans.size(); ++i)
        total[spans[i].name] += self[i];
    for (auto &[name, value] : total)
        value = ms(value) / static_cast<double>(std::max<size_t>(1, requests));
    return total;
}

std::vector<Metric>
layerMetrics(const PassResult &traced, const Summary &plain,
             const Summary &tracing, const std::vector<LayerWork> &work,
             const std::vector<perfbench::SpanRecord> &spans,
             size_t delivered)
{
    const auto self = meanSelfMs(spans, delivered);
    const auto selfOf = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const double n = static_cast<double>(std::max<size_t>(1, delivered));

    LayerWork perQuery;
    Tally tally;
    for (const auto &phase : traced.phases) {
        tally.add(phase);
        for (const auto &r : phase.requests) {
            if (!r.completed)
                continue;
            // A stage a cache answered did none of its work.
            const auto &w = work[r.item];
            perQuery.synthSeconds += w.synthSeconds;
            perQuery.frames += w.frames;
            if (r.timings.qa.total() > 0.0) {
                perQuery.filterHits += w.filterHits;
                perQuery.docsExamined += w.docsExamined;
            }
            if (r.timings.imm.total() > 0.0)
                perQuery.keypoints += w.keypoints;
        }
    }

    const Counters &first = traced.first;
    const Counters &last = traced.last;
    const Phase &high = traced.phases[2];
    uint64_t queued = 0;
    for (uint64_t c : high.queueWait)
        queued += c;
    const double queueTail = perfbench::supportedPercentile(queued, 99.0);
    const Tail serviceP50 = perfbench::tailOf(high.service, 50.0);
    const Tail serviceP99 = perfbench::tailOf(high.service, 99.0);

    std::vector<double> served;
    for (size_t s = 0; s < last.servedPerShard.size(); ++s)
        served.push_back(static_cast<double>(last.servedPerShard[s] -
                                             first.servedPerShard[s]));
    double servedTotal = 0.0;
    for (double v : served)
        servedTotal += v;
    const double skew = servedTotal > 0.0
        ? *std::max_element(served.begin(), served.end()) * served.size() /
            servedTotal
        : 0.0;

    const auto hitRatio = [](const CacheStats &a, const CacheStats &b) {
        const double hits = static_cast<double>(b.hits - a.hits);
        const double lookups = hits +
            static_cast<double>(b.misses - a.misses + b.expired - a.expired);
        return lookups > 0.0 ? hits / lookups : 0.0;
    };
    struct Batch
    {
        double occupancy = 0.0;
        double timeoutShare = 0.0;
        double waitP50 = 0.0;
    };
    const auto batchOf = [&](BatchKernel kernel) {
        const auto &a = first.batching.kernels[static_cast<size_t>(kernel)];
        const auto &b = last.batching.kernels[static_cast<size_t>(kernel)];
        const double batches = static_cast<double>(b.batches - a.batches);
        const size_t timeout = static_cast<size_t>(FlushReason::Timeout);
        Batch out;
        if (batches > 0.0) {
            out.occupancy = static_cast<double>(b.items - a.items) / batches;
            out.timeoutShare =
                static_cast<double>(b.flushes[timeout] - a.flushes[timeout]) /
                batches;
        }
        out.waitP50 = ms(bucketQuantile(
            bucketsGained(a.waitSeconds, b.waitSeconds), b.waitSeconds, 0.5));
        return out;
    };
    const Batch score = batchOf(BatchKernel::Score);
    const Batch match = batchOf(BatchKernel::Match);

    // Allocations are counted over the open-loop phases only: there
    // the harness itself allocates nothing per request.
    perfbench::AllocCounts allocs;
    uint64_t openDelivered = 0;
    for (size_t p = 1; p < traced.phases.size(); ++p) {
        allocs.allocations += traced.phases[p].allocs.allocations;
        allocs.bytes += traced.phases[p].allocs.bytes;
        for (const auto &r : traced.phases[p].requests)
            openDelivered += r.completed;
    }
    const double openN =
        static_cast<double>(std::max<uint64_t>(1, openDelivered));

    return {
        {"capacity_qps", plain.capacity, "qps", plain.capacityRequests,
         "(untraced pass, median of slices)"},
        {"p99_ms.low", ms(plain.p99Low.value), "ms", plain.p99Low.samples,
         "(untraced pass, " + tailNote(plain.p99Low) + ")"},
        {"p99_ms.high", ms(plain.p99High.value), "ms", plain.p99High.samples,
         "(untraced pass, " + tailNote(plain.p99High) + ")"},
        {"gen.lag_ms.p50", ms(tracing.lagP50.value), "ms",
         tracing.lagP50.samples, tailNote(tracing.lagP50)},
        {"gen.lag_ms.p99", ms(tracing.lagP99.value), "ms",
         tracing.lagP99.samples, tailNote(tracing.lagP99)},
        {"audio.synth_ms", ms(perQuery.synthSeconds) / n, "ms", delivered,
         "(direct calls)"},
        {"audio.mfcc_ms", selfOf("audio.mfcc"), "ms", delivered, ""},
        {"speech.score_ms", selfOf("speech.score"), "ms", delivered, ""},
        {"speech.viterbi_ms", selfOf("speech.viterbi"), "ms", delivered, ""},
        {"speech.frames", perQuery.frames / n, "count", delivered, ""},
        {"qa.stemmer_ms", selfOf("qa.stemmer"), "ms", delivered, ""},
        {"qa.regex_ms", selfOf("qa.regex"), "ms", delivered, ""},
        {"qa.crf_ms", selfOf("qa.crf"), "ms", delivered, ""},
        {"qa.search_ms", selfOf("qa.search"), "ms", delivered, ""},
        {"qa.select_ms", selfOf("qa.select"), "ms", delivered, ""},
        {"qa.filter_hits", perQuery.filterHits / n, "count", delivered, ""},
        {"qa.docs_examined", perQuery.docsExamined / n, "count", delivered,
         ""},
        {"vision.fe_ms", selfOf("vision.fe"), "ms", delivered, ""},
        {"vision.fd_ms", selfOf("vision.fd"), "ms", delivered, ""},
        {"vision.ann_ms", selfOf("vision.ann"), "ms", delivered, ""},
        {"vision.keypoints", perQuery.keypoints / n, "count", delivered, ""},
        {"core.queue_wait_ms.p50",
         ms(bucketQuantile(high.queueWait, last.queueWait, 0.5)), "ms",
         queued, "(high phase, histogram)"},
        {"core.queue_wait_ms.p99",
         ms(bucketQuantile(high.queueWait, last.queueWait,
                           queueTail / 100.0)),
         "ms", queued, format("(high phase, histogram, p%.1f)", queueTail)},
        {"core.service_ms.p50", ms(serviceP50.value), "ms",
         serviceP50.samples, "(high phase)"},
        {"core.service_ms.p99", ms(serviceP99.value), "ms",
         serviceP99.samples, "(high phase, " + tailNote(serviceP99) + ")"},
        {"core.other_ms", selfOf("request"), "ms", delivered,
         "(request self time)"},
        {"core.shed", static_cast<double>(tally.shed), "count", tally.sent,
         ""},
        {"core.batch.score.occupancy", score.occupancy, "items", 0, ""},
        {"core.batch.match.occupancy", match.occupancy, "items", 0, ""},
        {"core.batch.score.timeout_share", score.timeoutShare, "ratio", 0,
         ""},
        {"core.batch.match.timeout_share", match.timeoutShare, "ratio", 0,
         ""},
        {"core.batch.score.wait_ms.p50", score.waitP50, "ms", 0,
         "(histogram)"},
        {"core.batch.match.wait_ms.p50", match.waitP50, "ms", 0,
         "(histogram)"},
        {"core.cache.asr.hit", hitRatio(first.caches.acousticScores,
                                        last.caches.acousticScores),
         "ratio", 0, ""},
        {"core.cache.answer.hit",
         hitRatio(first.caches.answers, last.caches.answers), "ratio", 0,
         ""},
        {"core.cache.imm.hit",
         hitRatio(first.caches.matches, last.caches.matches), "ratio", 0,
         ""},
        {"core.cache.bytes", static_cast<double>(last.caches.total().bytes),
         "bytes", 0, ""},
        {"core.cluster.shard_skew", skew, "ratio", served.size(), ""},
        {"core.cluster.failovers",
         static_cast<double>(last.failovers - first.failovers), "count", 0,
         ""},
        {"core.cluster.hedges",
         static_cast<double>(last.hedges - first.hedges), "count", 0, ""},
        {"plane.spans_per_query",
         static_cast<double>(last.spansAppended - first.spansAppended) / n,
         "count", delivered, ""},
        {"plane.trace_dropped",
         static_cast<double>(last.traceDropped - first.traceDropped),
         "count", 0, ""},
        {"plane.flight_retained", static_cast<double>(last.flightRetained),
         "count", 0, ""},
        {"mem.allocs_per_query",
         static_cast<double>(allocs.allocations) / openN, "count",
         openDelivered, "(open-loop phases)"},
        {"mem.alloc_bytes_per_query",
         static_cast<double>(allocs.bytes) / openN, "bytes", openDelivered,
         "(open-loop phases)"},
        {"trace.overhead_qps_share",
         plain.capacity > 0.0
             ? (plain.capacity - tracing.capacity) / plain.capacity
             : 0.0,
         "ratio", 2, "(capacity_qps, untraced vs traced)"},
        {"trace.overhead_p50_ms",
         ms(tracing.p50Low.value - plain.p50Low.value), "ms", 2,
         "(p50_ms.low, traced minus untraced)"},
    };
}

std::string
jsonNumber(double value)
{
    return std::isfinite(value) ? format("%.17g", value) : "0";
}

void
printResult(const std::vector<Metric> &metrics, uint64_t attempted,
            uint64_t failed)
{
    for (const auto &m : metrics)
        std::printf("metric %-32s %16.6f %-6s n=%-6zu %s\n", m.name.c_str(),
                    m.value, m.unit, m.samples, m.note.c_str());
    std::string json = format(
        "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        json += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", metrics[i].name.c_str(),
                       jsonNumber(metrics[i].value).c_str(),
                       metrics[i].unit);
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    Run run;
    run.options = &o;
    if (o.voiceOnly) {
        run.pool = queriesOfType(QueryType::VoiceCommand);
        const auto vq = queriesOfType(QueryType::VoiceQuery);
        run.pool.insert(run.pool.end(), vq.begin(), vq.end());
    } else {
        run.pool = standardQuerySet();
    }
    std::vector<int> types;
    for (const auto &q : run.pool)
        types.push_back(static_cast<int>(q.type));
    const perfbench::QueryDraw draw = o.zipfSkew > 0.0
        ? perfbench::QueryDraw::zipf(types, o.zipfSkew, o.zipfOrderSeed)
        : perfbench::QueryDraw::uniform(run.pool.size());

    std::printf("fingerprint {\"simd\": \"%s\", \"nproc\": %u, "
                "\"compiler\": \"%s\", \"build\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu}\n",
                simd::describeDispatch().c_str(),
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE, o.workload.c_str(),
                static_cast<unsigned long long>(o.seed));

    // Set-up: build the pipeline and the target until a request can be
    // admitted, several times; each build but the last is discarded
    // before the next starts, so one pipeline is resident at a time.
    SiriusConfig config;
    config.asrBackend = o.backend;
    std::vector<double> setup;
    std::unique_ptr<SiriusPipeline> pipeline;
    std::unique_ptr<Target> target;
    for (size_t b = 0; b < (o.trace ? 1 : o.setupBuilds); ++b) {
        target.reset();
        pipeline.reset();
        const double start = now();
        pipeline =
            std::make_unique<SiriusPipeline>(SiriusPipeline::build(config));
        target = std::make_unique<Target>(*pipeline, o);
        setup.push_back(now() - start);
    }

    // Serial reference, one per distinct query.
    for (const auto &query : run.pool) {
        Reference ref;
        ref.result = pipeline->process(query);
        ref.truth = matchesTruth(query, ref.result);
        run.reference.push_back(std::move(ref));
    }

    // Warm-up, checked but not measured: every distinct query once
    // (filling the caches where they are on), then a short closed loop.
    {
        Phase warm;
        for (size_t i = 0; i < run.pool.size(); ++i) {
            Request r;
            r.item = i;
            r.accepted = true;
            complete(r, run, target->handle(run.pool[i]));
            warm.requests.push_back(r);
        }
        std::vector<perfbench::Deck> decks;
        for (size_t c = 0; c < target->workers(); ++c)
            decks.emplace_back(draw, o.seed, 900 + c);
        closedSlice(warm, *target, run, decks, 0.5, false);
        Tally t;
        t.add(warm);
        if (t.errors() != 0)
            fail(2, "warm-up produced failed or mismatched results");
    }

    const double passSeconds = o.trace ? o.seconds / 2.0 : o.seconds;
    PassResult plain = runPass(*target, run, draw, passSeconds, false);
    printPhases(plain, "untraced");
    PassResult traced;
    if (o.trace) {
        perfbench::setAllocCounting(true);
        traced = runPass(*target, run, draw, passSeconds, true);
        perfbench::setAllocCounting(false);
        printPhases(traced, "traced");
    }

    // Output check: every delivered result equals the serial reference.
    Tally all;
    for (const PassResult *pass : {&plain, &traced}) {
        for (const auto &phase : pass->phases) {
            all.add(phase);
            for (const auto &r : phase.requests)
                if (r.completed && !r.matches)
                    std::fprintf(stderr, "mismatch: phase %s query '%s'\n",
                                 phase.name, run.pool[r.item].text.c_str());
        }
    }
    if (all.mismatched != 0)
        fail(2, format("%llu delivered results differ from the serial "
                       "reference",
                       static_cast<unsigned long long>(all.mismatched)));

    const Summary plainSummary = summarize(plain, o);
    const Summary tracedSummary = o.trace ? summarize(traced, o) : Summary{};
    const Summary &generator = o.trace ? tracedSummary : plainSummary;
    if (ms(generator.lagP99.value) > kMaxLagMs)
        fail(3, format("invalid run: generator lag p%.1f is %.3f ms, over "
                       "the %.3f ms bound",
                       generator.lagP99.percentile,
                       ms(generator.lagP99.value), kMaxLagMs));

    std::printf("check sent=%llu delivered=%llu shed=%llu failed=%llu "
                "degraded=%llu mismatched=%llu error_rate=%.6f "
                "miss_rate.high=%.6f gen.lag_ms.p99=%.3f\n",
                static_cast<unsigned long long>(all.sent),
                static_cast<unsigned long long>(all.delivered),
                static_cast<unsigned long long>(all.shed),
                static_cast<unsigned long long>(all.failed),
                static_cast<unsigned long long>(all.degraded),
                static_cast<unsigned long long>(all.mismatched),
                all.sent == 0 ? 0.0
                              : static_cast<double>(all.errors()) /
                        static_cast<double>(all.sent),
                1.0 - plainSummary.sloShareHigh,
                ms(generator.lagP99.value));

    if (!o.trace) {
        std::printf("ungated capacity_qps=%.3f p99_ms.low=%.3f (p%.1f) "
                    "p99_ms.high=%.3f (p%.1f)\n",
                    plainSummary.capacity, ms(plainSummary.p99Low.value),
                    plainSummary.p99Low.percentile,
                    ms(plainSummary.p99High.value),
                    plainSummary.p99High.percentile);
        printResult(endToEndMetrics(plainSummary, plain, setup, all, o),
                    all.sent, all.errors());
        return 0;
    }

    std::vector<LayerWork> work;
    for (size_t i = 0; i < run.pool.size(); ++i)
        work.push_back(measureLayerWork(*pipeline, run.pool[i],
                                        run.reference[i].result));
    size_t delivered = 0;
    const auto spans = compactSpans(traced.phases, delivered);
    if (!o.traceOut.empty()) {
        if (!perfbench::writeJsonl(spans, o.traceOut))
            fail(4, format("cannot write %s", o.traceOut.c_str()));
        std::printf("trace %s (%zu spans)\n", o.traceOut.c_str(),
                    spans.size());
    }
    printResult(layerMetrics(traced, plainSummary, tracedSummary, work, spans,
                             delivered),
                all.sent, all.errors());
    return 0;
}
