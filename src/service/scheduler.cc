#include "scheduler.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "campaign/checkpoint.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/cli.hh"
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

/** Parse the payload stored under @p key with @p parse; damage or a
 *  trailing token is a miss. */
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
      options(std::move(the_options)),
      cache(shardCacheHooks(the_store, fingerprint)),
      lookupMs(0.0, 50.0, 25), computeMs(0.0, 5000.0, 25),
      aggregateMs(0.0, 50.0, 25)
{}

std::string
shardStoreKey(const std::string &fingerprint, const ShardSpec &spec)
{
    return fingerprint + " " + serializeShardSpec(spec);
}

ShardCache
shardCacheHooks(ResultStore &store, std::string fingerprint)
{
    ShardCache hooks;
    hooks.lookup = [&store, fingerprint](const ShardSpec &spec,
                                         InjectionCycleOutcome &cycle,
                                         SavfResult &savf) {
        const std::string key = shardStoreKey(fingerprint, spec);
        return spec.kind == ShardSpec::Kind::Cycle
            ? lookupStrict(store, key, cycle, parseOutcomeFields)
            : lookupStrict(store, key, savf, parseSavfFields);
    };
    hooks.store = [&store, fingerprint](const ShardSpec &spec,
                                        const InjectionCycleOutcome &cycle,
                                        const SavfResult &savf) {
        const std::string key = shardStoreKey(fingerprint, spec);
        // A cycle outcome is v3 exactly when it carries attribution.
        if (spec.kind == ShardSpec::Kind::Cycle) {
            store.store(key, serializeOutcomeFields(cycle),
                        cycle.attr.valid ? 3 : 2);
        } else {
            store.store(key, serializeSavfFields(savf));
        }
    };
    return hooks;
}

std::string
QueryScheduler::shardKey(const ShardSpec &spec) const
{
    return shardStoreKey(fingerprint, spec);
}

std::optional<CampaignSummary>
QueryScheduler::answerFromStore(const Structure &structure,
                                const QuerySpec &query, StoreHits &hits)
{
    const Clock::time_point lookup_start = Clock::now();

    // The keys the campaign's cache tier uses: the query's sampling
    // verbatim (threads and the stop flag are not part of a key), so
    // every process pointed at the same store derives the same keys.
    ShardSpec spec;
    spec.structure = query.structure;
    spec.sampling = query.sampling;
    CampaignSummary summary;
    bool all_hits = true;
    const std::vector<uint64_t> cycles =
        engine->injectionCycles(query.sampling);
    for (double d : query.delays) {
        spec.delayFraction = d;
        std::vector<InjectionCycleOutcome> &cell =
            hits.cycles.emplace_back();
        for (uint64_t cycle : cycles) {
            spec.cycle = cycle;
            InjectionCycleOutcome outcome;
            SavfResult unused;
            if (cache.lookup(spec, outcome, unused)) {
                cell.push_back(std::move(outcome));
                ++hits.count;
            } else {
                all_hits = false;
            }
        }
        CampaignCellResult &result = summary.cells.emplace_back();
        result.key = {"davf", options.benchmark, query.structure,
                      canonicalDelay(d)};
        result.delay = d;
    }
    if (query.runSavf) {
        spec.kind = ShardSpec::Kind::Savf;
        CampaignCellResult &result = summary.cells.emplace_back();
        result.key = {"savf", options.benchmark, query.structure,
                      canonicalDelay(0.0)};
        InjectionCycleOutcome unused;
        if (cache.lookup(spec, unused, result.savf)) {
            hits.savf = result.savf;
            ++hits.count;
        } else {
            all_hits = false;
        }
    }
    {
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        lookupMs.add(elapsedMs(lookup_start));
    }
    if (!all_hits)
        return std::nullopt;

    // Aggregation without the compute lock; a cell that needs the STA
    // fallback goes to the campaign, which may run it.
    const Clock::time_point agg_start = Clock::now();
    for (size_t i = 0; i < hits.cycles.size(); ++i) {
        std::optional<DelayAvfResult> result = engine->aggregateDelayAvf(
            structure, query.sampling, hits.cycles[i]);
        if (!result)
            return std::nullopt;
        summary.cells[i].davf = std::move(*result);
    }
    const std::lock_guard<std::mutex> stats_lock(statsMutex);
    aggregateMs.add(elapsedMs(agg_start));
    return summary;
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
        StoreHits first;
        std::optional<CampaignSummary> summary =
            answerFromStore(*structure, query, first);
        if (summary) {
            reply.storeHits = first.count;
        } else {
            // A miss: run the query as a campaign whose cache tier
            // serves the pass's hits as read and looks every other
            // shard up again in the store, under the lock, computing
            // only what is still missing.
            const std::lock_guard<std::mutex> engine_lock(engineMutex);
            const Clock::time_point compute_start = Clock::now();
            CampaignOptions campaign = queryCampaign(query);
            campaign.benchmark = options.benchmark;
            campaign.sampling.threads = options.threads;
            campaign.stopFlag = cancel;
            campaign.dispatcher = options.dispatcher;
            campaign.cache = cache;
            campaign.cache.lookup = [&](const ShardSpec &spec,
                                        InjectionCycleOutcome &cycle,
                                        SavfResult &savf) {
                if (spec.kind == ShardSpec::Kind::Savf && first.savf) {
                    savf = *first.savf;
                    return true;
                }
                const auto d = std::find(query.delays.begin(),
                                         query.delays.end(),
                                         spec.delayFraction);
                if (spec.kind == ShardSpec::Kind::Cycle
                    && d != query.delays.end()) {
                    for (const InjectionCycleOutcome &hit :
                         first.cycles[d - query.delays.begin()]) {
                        if (hit.cycle == spec.cycle) {
                            cycle = hit;
                            return true;
                        }
                    }
                }
                return cache.lookup(spec, cycle, savf);
            };
            summary =
                Campaign(*engine, *registry, std::move(campaign)).run();
            reply.storeHits = summary->shardsFromCache;
            reply.storeMisses = summary->shardsComputed;
            const std::lock_guard<std::mutex> stats_lock(statsMutex);
            computeMs.add(elapsedMs(compute_start));
        }

        // Shards that missed the first lookup but were stored by the
        // time the campaign looked again were computed by another
        // client's query: in-flight hits.
        const uint64_t in_flight = reply.storeHits > first.count
            ? reply.storeHits - first.count
            : 0;
        schedulerMetrics().shardHits.add(reply.storeHits);
        schedulerMetrics().inFlightHits.add(in_flight);
        schedulerMetrics().shardsComputed.add(reply.storeMisses);
        {
            const std::lock_guard<std::mutex> stats_lock(statsMutex);
            counters.shardHits += reply.storeHits;
            counters.inFlightHits += in_flight;
            counters.shardsComputed += reply.storeMisses;
        }

        for (const CampaignCellResult &cell : summary->cells) {
            if (!cell.failed)
                continue;
            if (cell.failKind != ErrorKind::Internal)
                return R::Err(cell.failKind, cell.failReason);
            return R::Err(ErrorKind::Internal,
                          (cell.key.kind == "savf"
                               ? "isolated sAVF cell failed: "
                               : "isolated cell failed: ")
                              + cell.failReason);
        }
        if (summary->interrupted) {
            schedulerMetrics().cancelled.add(1);
            const std::lock_guard<std::mutex> stats_lock(statsMutex);
            ++counters.cancelled;
            return R::Err(ErrorKind::Timeout, "query cancelled");
        }

        reply.reportJson =
            reportJson(reportRows(*summary, options.structureLabel));
        schedulerMetrics().queries.add(1);
        {
            const std::lock_guard<std::mutex> stats_lock(statsMutex);
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
