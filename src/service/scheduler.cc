#include "scheduler.hh"

#include <chrono>
#include <sstream>

#include "campaign/checkpoint.hh"
#include "campaign/supervisor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace davf::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Scheduler metric handles, mirroring SchedulerStats. */
struct SchedulerMetrics
{
    obs::Counter queries{"service.queries"};
    obs::Counter shardHits{"service.shard_hits"};
    obs::Counter inFlightHits{"service.in_flight_hits"};
    obs::Counter shardsComputed{"service.shards_computed"};
    obs::Counter cancelled{"service.cancelled"};
    obs::Counter queryNs{"service.time.query_ns"};
};

SchedulerMetrics &
schedulerMetrics()
{
    static SchedulerMetrics *const metrics = new SchedulerMetrics();
    return *metrics;
}

double
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
}

/** Parse one stored payload with @p parse; any damage or trailing
 * token fails. */
template <typename T, typename Parse>
bool
lookupStrict(ResultStore &store, const std::string &key, T &out,
             Parse parse)
{
    const std::optional<std::string> payload = store.lookup(key);
    if (!payload)
        return false;
    std::istringstream is(*payload);
    std::string trailing;
    out = T{};
    if (parse(is, out) && !(is >> trailing))
        return true;
    davf_warn("stored shard payload under '", key,
              "' unparseable; recomputing");
    return false;
}

/// @name Shard record codec (see shardCacheHooks in scheduler.hh)
/// @{
/** A cycle outcome is v3 exactly when it carries attribution. */
void
storeShardOutcome(ResultStore &store, const std::string &key,
                  const InjectionCycleOutcome &outcome)
{
    store.store(key, serializeOutcomeFields(outcome),
                outcome.attr.valid ? 3 : 2);
}

void
storeShardOutcome(ResultStore &store, const std::string &key,
                  const SavfResult &result)
{
    store.store(key, serializeSavfFields(result));
}

bool
lookupShardOutcome(ResultStore &store, const std::string &key,
                   InjectionCycleOutcome &outcome)
{
    return lookupStrict(store, key, outcome, parseOutcomeFields);
}

bool
lookupShardOutcome(ResultStore &store, const std::string &key,
                   SavfResult &result)
{
    return lookupStrict(store, key, result, parseSavfFields);
}
/// @}

std::string
histogramJson(const Histogram &h)
{
    std::ostringstream os;
    os << "{\"count\":" << h.count() << ",\"bins\":[";
    bool first = true;
    for (size_t i = 0; i < h.bins().size(); ++i) {
        if (h.bins()[i] == 0)
            continue;
        if (!first)
            os << ',';
        first = false;
        os << "{\"lo\":" << h.binLo(i) << ",\"hi\":" << h.binHi(i)
           << ",\"n\":" << h.bins()[i] << '}';
    }
    os << "]}";
    return os.str();
}

} // namespace

QueryScheduler::QueryScheduler(VulnerabilityEngine &the_engine,
                               const StructureRegistry &the_registry,
                               std::string the_fingerprint,
                               ResultStore &the_store, Options the_options)
    : engine(&the_engine), registry(&the_registry),
      fingerprint(std::move(the_fingerprint)), store(&the_store),
      options(std::move(the_options)), lookupMs(0.0, 50.0, 25),
      computeMs(0.0, 5000.0, 25), aggregateMs(0.0, 50.0, 25)
{
    if (!options.workerArgv.empty()) {
        SupervisorOptions sup;
        sup.workerArgv = options.workerArgv;
        sup.workers = options.workers;
        sup.maxRetries = options.maxRetries;
        sup.workerMemMb = options.workerMemMb;
        sup.configHash = fingerprint;
        sup.benchmark = options.benchmark;
        dispatcher = std::make_unique<Supervisor>(*engine, *registry,
                                                  std::move(sup));
    }
}

QueryScheduler::~QueryScheduler() = default;

std::string
shardStoreKey(const std::string &fingerprint, const ShardSpec &spec)
{
    return fingerprint + " " + serializeShardSpec(spec);
}

ShardCacheHooks
shardCacheHooks(ResultStore &store, std::string fingerprint)
{
    ShardCacheHooks hooks;
    hooks.lookup = [&store, fingerprint](const ShardSpec &spec,
                                         InjectionCycleOutcome &cycle,
                                         SavfResult &savf) {
        const std::string key = shardStoreKey(fingerprint, spec);
        return spec.kind == ShardSpec::Kind::Cycle
            ? lookupShardOutcome(store, key, cycle)
            : lookupShardOutcome(store, key, savf);
    };
    hooks.store = [&store, fingerprint](const ShardSpec &spec,
                                        const InjectionCycleOutcome &cycle,
                                        const SavfResult &savf) {
        const std::string key = shardStoreKey(fingerprint, spec);
        if (spec.kind == ShardSpec::Kind::Cycle)
            storeShardOutcome(store, key, cycle);
        else
            storeShardOutcome(store, key, savf);
    };
    return hooks;
}

std::string
QueryScheduler::shardKey(const ShardSpec &spec) const
{
    return shardStoreKey(fingerprint, spec);
}

void
QueryScheduler::storeOutcome(ShardSpec spec,
                             const InjectionCycleOutcome &outcome)
{
    spec.cycle = outcome.cycle;
    storeShardOutcome(*store, shardKey(spec), outcome);
}

Result<DelayAvfResult>
QueryScheduler::runDavfCell(const Structure &structure,
                            const QuerySpec &query, double d,
                            const std::atomic<bool> *cancel,
                            QueryReply &reply)
{
    using R = Result<DelayAvfResult>;

    SamplingConfig sampling = query.sampling;
    sampling.threads = options.threads;
    sampling.stopFlag = cancel;

    // The spec prototype that, with a cycle filled in, keys one shard.
    // Its sampling is the query's verbatim (threads and stop flag are
    // operational and not serialized), so every process pointed at the
    // same store derives the same keys.
    ShardSpec spec;
    spec.kind = ShardSpec::Kind::Cycle;
    spec.structure = query.structure;
    spec.delayFraction = d;
    spec.sampling = query.sampling;

    const std::vector<uint64_t> cycles = engine->injectionCycles(sampling);

    DelayAvfProgress progress;
    std::vector<uint64_t> missing;
    const Clock::time_point lookup_start = Clock::now();
    for (uint64_t cycle : cycles) {
        spec.cycle = cycle;
        InjectionCycleOutcome outcome;
        if (lookupShardOutcome(*store, shardKey(spec), outcome)) {
            progress.completed.push_back(std::move(outcome));
            ++reply.storeHits;
            schedulerMetrics().shardHits.add(1);
            const std::lock_guard<std::mutex> stats_lock(statsMutex);
            ++counters.shardHits;
        } else {
            missing.push_back(cycle);
        }
    }
    {
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        lookupMs.add(elapsedMs(lookup_start));
    }

    // An all-hit cell aggregates without the compute lock; only an STA
    // fallback (no quarantine-free outcome) needs the engine below.
    if (missing.empty()) {
        if (std::optional<DelayAvfResult> result =
                aggregateHits(structure, sampling, progress.completed))
            return R::Ok(std::move(*result));
    }

    const std::lock_guard<std::mutex> engine_lock(engineMutex);

    if (!missing.empty()) {
        // Double-check under the compute lock: a concurrent client may
        // have computed (and stored) these shards while we waited. This
        // is the in-flight dedupe — identical concurrent queries cost
        // one simulation.
        std::vector<uint64_t> still;
        for (uint64_t cycle : missing) {
            spec.cycle = cycle;
            InjectionCycleOutcome outcome;
            if (lookupShardOutcome(*store, shardKey(spec), outcome)) {
                progress.completed.push_back(std::move(outcome));
                ++reply.storeHits;
                schedulerMetrics().shardHits.add(1);
                schedulerMetrics().inFlightHits.add(1);
                const std::lock_guard<std::mutex> stats_lock(statsMutex);
                ++counters.shardHits;
                ++counters.inFlightHits;
            } else {
                still.push_back(cycle);
            }
        }
        missing = std::move(still);
    }

    // Every computed outcome is persisted as it arrives.
    auto on_computed = [&](const InjectionCycleOutcome &outcome) {
        storeOutcome(spec, outcome);
        ++reply.storeMisses;
        schedulerMetrics().shardsComputed.add(1);
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        ++counters.shardsComputed;
    };

    if (!missing.empty() && dispatcher) {
        // Isolated compute: ship the missing cycles to the workers.
        // (Cancellation takes effect between cells in this mode.)
        const Clock::time_point compute_start = Clock::now();
        const ShardDispatcher::CellResult cell = dispatcher->runDavfCell(
            query.structure, d, missing, query.sampling,
            [&](const InjectionCycleOutcome &outcome) {
                on_computed(outcome);
                progress.completed.push_back(outcome);
            });
        {
            const std::lock_guard<std::mutex> stats_lock(statsMutex);
            computeMs.add(elapsedMs(compute_start));
        }
        if (cell.stopped)
            return R::Err(ErrorKind::Timeout, "query cancelled");
        if (cell.failed) {
            return R::Err(ErrorKind::Internal,
                          "isolated cell failed: " + cell.failReason);
        }
        missing.clear();
    }

    if (!missing.empty()) {
        // In-process compute: delayAvf() simulates exactly the cycles
        // absent from progress.completed on the engine thread pool and
        // aggregates everything — the checkpoint-resume path, so the
        // result is bit-identical to a cold run.
        progress.onCycleDone = on_computed;
        const Clock::time_point compute_start = Clock::now();
        DelayAvfResult result =
            engine->delayAvf(structure, d, sampling, &progress);
        {
            const std::lock_guard<std::mutex> stats_lock(statsMutex);
            computeMs.add(elapsedMs(compute_start));
        }
        if (result.stopped)
            return R::Err(ErrorKind::Timeout, "query cancelled");
        return R::Ok(std::move(result));
    }

    // Aggregation only: every cycle came from the store (or the worker
    // pool). delayAvf() simulates nothing here, so it needs no stop
    // flag; it runs the STA fallback (under this lock, as Sta requires)
    // only when no outcome is quarantine-free.
    SamplingConfig agg_sampling = sampling;
    agg_sampling.stopFlag = nullptr;
    progress.onCycleDone = nullptr;
    const Clock::time_point agg_start = Clock::now();
    DelayAvfResult result =
        engine->delayAvf(structure, d, agg_sampling, &progress);
    {
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        aggregateMs.add(elapsedMs(agg_start));
    }
    return R::Ok(std::move(result));
}

std::optional<DelayAvfResult>
QueryScheduler::aggregateHits(
    const Structure &structure, const SamplingConfig &sampling,
    std::span<const InjectionCycleOutcome> completed)
{
    const Clock::time_point agg_start = Clock::now();
    std::optional<DelayAvfResult> result =
        engine->aggregateDelayAvf(structure, sampling, completed);
    if (result) {
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        aggregateMs.add(elapsedMs(agg_start));
    }
    return result;
}

Result<SavfResult>
QueryScheduler::runSavfCell(const Structure &structure,
                            const QuerySpec &query,
                            const std::atomic<bool> *cancel,
                            QueryReply &reply)
{
    using R = Result<SavfResult>;

    ShardSpec spec;
    spec.kind = ShardSpec::Kind::Savf;
    spec.structure = query.structure;
    spec.sampling = query.sampling;
    const std::string key = shardKey(spec);

    const Clock::time_point lookup_start = Clock::now();
    auto tryLookup = [&]() -> std::optional<SavfResult> {
        SavfResult result;
        if (lookupShardOutcome(*store, key, result))
            return result;
        return std::nullopt;
    };
    std::optional<SavfResult> hit = tryLookup();
    {
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        lookupMs.add(elapsedMs(lookup_start));
    }
    if (hit) {
        ++reply.storeHits;
        schedulerMetrics().shardHits.add(1);
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        ++counters.shardHits;
        return R::Ok(std::move(*hit));
    }

    const std::lock_guard<std::mutex> engine_lock(engineMutex);
    if ((hit = tryLookup())) {
        ++reply.storeHits;
        schedulerMetrics().shardHits.add(1);
        schedulerMetrics().inFlightHits.add(1);
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        ++counters.shardHits;
        ++counters.inFlightHits;
        return R::Ok(std::move(*hit));
    }

    const Clock::time_point compute_start = Clock::now();
    SavfResult result;
    if (dispatcher) {
        const ShardDispatcher::CellResult cell =
            dispatcher->runSavfCell(query.structure, query.sampling, result);
        if (cell.failed) {
            return R::Err(ErrorKind::Internal,
                          "isolated sAVF cell failed: " + cell.failReason);
        }
    } else {
        SamplingConfig sampling = query.sampling;
        sampling.threads = options.threads;
        sampling.stopFlag = cancel;
        result = engine->savf(structure, sampling);
    }
    schedulerMetrics().shardsComputed.add(1);
    {
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        computeMs.add(elapsedMs(compute_start));
        ++counters.shardsComputed;
    }
    if (result.stopped)
        return R::Err(ErrorKind::Timeout, "query cancelled");
    storeShardOutcome(*store, key, result);
    ++reply.storeMisses;
    return R::Ok(std::move(result));
}

Result<QueryScheduler::QueryReply>
QueryScheduler::run(const QuerySpec &query,
                    const std::atomic<bool> *cancel)
{
    using R = Result<QueryReply>;
    const obs::Span query_span("service.query",
                               &schedulerMetrics().queryNs);
    try {
        const Structure *structure = registry->find(query.structure);
        if (!structure) {
            return R::Err(ErrorKind::NotFound, "unknown structure '"
                                                   + query.structure
                                                   + "'");
        }

        QueryReply reply;
        std::vector<ReportRow> rows;
        for (double d : query.delays) {
            Result<DelayAvfResult> cell =
                runDavfCell(*structure, query, d, cancel, reply);
            if (!cell) {
                if (cell.error().kind() == ErrorKind::Timeout) {
                    schedulerMetrics().cancelled.add(1);
                    const std::lock_guard<std::mutex> lock(statsMutex);
                    ++counters.cancelled;
                }
                return R::Err(cell.error());
            }
            ReportRow row;
            row.kind = "davf";
            row.benchmark = options.benchmark;
            row.structure = query.structure + options.structureLabel;
            row.delayFraction = d;
            row.davf = std::move(cell.value());
            rows.push_back(std::move(row));
        }

        if (query.runSavf) {
            Result<SavfResult> cell =
                runSavfCell(*structure, query, cancel, reply);
            if (!cell) {
                if (cell.error().kind() == ErrorKind::Timeout) {
                    schedulerMetrics().cancelled.add(1);
                    const std::lock_guard<std::mutex> lock(statsMutex);
                    ++counters.cancelled;
                }
                return R::Err(cell.error());
            }
            ReportRow row;
            row.kind = "savf";
            row.benchmark = options.benchmark;
            row.structure = query.structure + options.structureLabel;
            row.savf = std::move(cell.value());
            rows.push_back(std::move(row));
        }

        reply.reportJson = reportJson(rows);
        schedulerMetrics().queries.add(1);
        {
            const std::lock_guard<std::mutex> lock(statsMutex);
            ++counters.queries;
        }
        return R::Ok(std::move(reply));
    } catch (const DavfError &error) {
        return R::Err(error);
    }
}

SchedulerStats
QueryScheduler::stats() const
{
    const std::lock_guard<std::mutex> lock(statsMutex);
    return counters;
}

std::string
QueryScheduler::statsJson() const
{
    const StoreStats store_stats = store->stats();
    const std::lock_guard<std::mutex> lock(statsMutex);
    std::ostringstream os;
    os << "{\"queries\":" << counters.queries
       << ",\"shard_hits\":" << counters.shardHits
       << ",\"in_flight_hits\":" << counters.inFlightHits
       << ",\"shards_computed\":" << counters.shardsComputed
       << ",\"cancelled\":" << counters.cancelled
       << ",\"store\":{\"memory_hits\":" << store_stats.memoryHits
       << ",\"disk_hits\":" << store_stats.diskHits
       << ",\"misses\":" << store_stats.misses
       << ",\"evictions\":" << store_stats.evictions
       << ",\"corrupt_records\":" << store_stats.corruptRecords
       << ",\"future_records\":" << store_stats.futureRecords
       << ",\"writes\":" << store_stats.writes
       << ",\"write_failures\":" << store_stats.writeFailures
       << ",\"unpublished_writes\":" << store_stats.unpublishedWrites
       << ",\"lru_entries\":" << store_stats.lruEntries
       << ",\"lru_bytes\":" << store_stats.lruBytes;
    if (const auto index_stats = store->indexStats()) {
        os << ",\"index\":{\"lookups\":" << index_stats->lookups
           << ",\"hits\":" << index_stats->hits
           << ",\"corrupt_records\":" << index_stats->corrupt
           << ",\"future_records\":" << index_stats->future
           << ",\"collisions\":" << index_stats->collisions
           << ",\"appends\":" << index_stats->appends
           << ",\"replayed_frames\":" << index_stats->replayed
           << ",\"tail_repairs\":" << index_stats->tailRepairs
           << ",\"keys\":" << index_stats->keys
           << ",\"segment_bytes\":" << index_stats->segmentBytes
           << '}';
    }
    os << "},\"latency_ms\":{\"lookup\":" << histogramJson(lookupMs)
       << ",\"compute\":" << histogramJson(computeMs)
       << ",\"aggregate\":" << histogramJson(aggregateMs)
       << "},\"registry\":"
       << obs::MetricsRegistry::instance().snapshot().toJson() << '}';
    return os.str();
}

} // namespace davf::service
