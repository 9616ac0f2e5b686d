/**
 * @file
 * The davf_serve query scheduler.
 *
 * Decomposes one client query (structure × delay list [× sAVF]) into
 * the shard units every campaign uses — one DelayAVF injection cycle or
 * one whole sAVF evaluation (core/shard) — keyed in the persistent
 * result store, and answers it in one of two ways:
 *
 *  - **all hits**: a lock-free pass looks up every shard of the query
 *    and aggregates each cell with
 *    VulnerabilityEngine::aggregateDelayAvf(), a pure function of the
 *    cell's outcomes; no simulation runs and no lock is taken.
 *  - **any miss**: the query runs as a one-structure Campaign
 *    (campaign/campaign.hh) under the compute lock, with the store as
 *    its cache tier: the pass's hits are served as read, every other
 *    shard is looked up again, only the misses are computed —
 *    in-process on the engine's thread pool, or through the caller's
 *    dispatcher (davf_serve --isolate process hands it a Supervisor) —
 *    and each fresh outcome is written back as it completes.
 *
 * Both ways aggregate the same completed cycle outcomes, so a reply assembled from cached shards is bit-identical to a
 * cold evaluation (and to davf_run --json) at any thread or worker
 * count. A cell whose every outcome quarantined a wire needs the STA
 * fallback, which only the locked campaign runs.
 *
 * Concurrency: the engine's delayAvf/delayAvfCycle entry points share
 * mutable snapshot and STA state and must not run concurrently, so one
 * mutex serializes every campaign (each still fans out internally
 * across the engine thread pool). Warm queries proceed in parallel with
 * each other and with another client's misses. The campaign's store
 * lookups under the lock are the in-flight dedupe: identical shards
 * requested by concurrent clients are computed once, and the second
 * client finds them stored (tallied as inFlightHits, a subset of
 * shardHits).
 */

#ifndef DAVF_SERVICE_SCHEDULER_HH
#define DAVF_SERVICE_SCHEDULER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "service/protocol.hh"
#include "service/result_store.hh"
#include "util/stats.hh"

namespace davf::service {

/**
 * The content-addressed store key of one shard under one workspace
 * build fingerprint. Every campaign cache over the store uses it, so a
 * shard computed by davf_serve or davf_run is a hit for the other.
 */
std::string shardStoreKey(const std::string &fingerprint,
                          const ShardSpec &spec);

/**
 * A campaign cache tier (CampaignOptions::cache) over @p store, for
 * shards keyed under @p fingerprint. It is the one shard record codec:
 * a cycle outcome is written in record grammar v3 exactly when it
 * carries attribution (plain outcomes stay byte-identical v2), and a
 * payload that fails to parse strictly — damage or trailing tokens — is
 * a miss the campaign recomputes.
 */
ShardCache shardCacheHooks(ResultStore &store, std::string fingerprint);

/** Monotonic scheduler counters (store counters live in StoreStats). */
struct SchedulerStats
{
    uint64_t queries = 0;       ///< Queries answered successfully.
    uint64_t shardHits = 0;     ///< Shards served from the store.
    uint64_t inFlightHits = 0;  ///< Of shardHits: first-lookup misses
                                ///< resolved by another client's
                                ///< concurrent compute of the same shard.
    uint64_t shardsComputed = 0; ///< Shards simulated here.
    uint64_t cancelled = 0;      ///< Queries stopped cooperatively.
};

/** The query scheduler (see file comment). */
class QueryScheduler
{
  public:
    struct Options
    {
        /** Benchmark label stamped into report rows. */
        std::string benchmark = "workload";

        /** Suffix appended to structure labels (e.g. " (ECC)"). */
        std::string structureLabel;

        /** Engine compute threads (0 = hardware concurrency). */
        unsigned threads = 0;

        /** A caller-owned dispatcher (e.g. a Supervisor) that computes
         *  every query's misses, outliving the scheduler; null computes
         *  them in-process on the engine thread pool. */
        ShardDispatcher *dispatcher = nullptr;
    };

    /**
     * @p fingerprint is the workspace build fingerprint the store keys
     * are derived from (Workspace::fingerprint(), or any stable token
     * in tests). The engine, registry, and store must outlive this.
     */
    QueryScheduler(VulnerabilityEngine &engine,
                   const StructureRegistry &registry,
                   std::string fingerprint, ResultStore &store,
                   Options options);

    QueryScheduler(const QueryScheduler &) = delete;
    QueryScheduler &operator=(const QueryScheduler &) = delete;

    /** One answered query. */
    struct QueryReply
    {
        /** reportJson() over the query's rows (see core/report). */
        std::string reportJson;

        uint64_t storeHits = 0;   ///< Shards this query took from the store.
        uint64_t storeMisses = 0; ///< Shards this query had to compute.
    };

    /**
     * Answer @p query. @p cancel, when given, stops the evaluation
     * cooperatively between injections (Err{Timeout, "query
     * cancelled"}). Unknown structures are Err{NotFound}; out-of-domain
     * delays are Err{OutOfRange}; a cell with too many failed
     * injections is Err{ExcessiveFailures}; a cell the worker processes
     * failed is Err{Internal, "isolated cell failed: ..."}; other
     * engine failures surface as their own kinds.
     */
    Result<QueryReply> run(const QuerySpec &query,
                           const std::atomic<bool> *cancel = nullptr);

    /** The store key of @p spec under this scheduler's fingerprint. */
    std::string shardKey(const ShardSpec &spec) const;

    SchedulerStats stats() const;

    /**
     * Scheduler + store counters and the per-stage latency histograms
     * (lookup / compute / aggregate, milliseconds, one sample per
     * query) as one JSON line — the body of the protocol's "ok stats"
     * reply.
     */
    std::string statsJson() const;

  private:
    /** The shards the lock-free pass read. */
    struct StoreHits
    {
        /** Per query delay, the cycle outcomes found. */
        std::vector<std::vector<InjectionCycleOutcome>> cycles;
        std::optional<SavfResult> savf;
        uint64_t count = 0;
    };

    /**
     * The lock-free pass (see file comment): the query's cells when
     * every shard is a hit and every cell aggregates without STA;
     * std::nullopt otherwise. @p hits receives the shards found either
     * way, so a campaign run after a miss reads none of them twice.
     */
    std::optional<CampaignSummary>
    answerFromStore(const Structure &structure, const QuerySpec &query,
                    StoreHits &hits);

    VulnerabilityEngine *engine;
    const StructureRegistry *registry;
    std::string fingerprint;
    ResultStore *store;
    Options options;

    /** The store as a campaign cache tier (shardCacheHooks). */
    const ShardCache cache;

    /** Serializes every campaign (see file comment). */
    std::mutex engineMutex;

    mutable std::mutex statsMutex;
    SchedulerStats counters;
    Histogram lookupMs;    ///< The lock-free pass's lookups.
    Histogram computeMs;   ///< The locked campaign of a query that missed.
    Histogram aggregateMs; ///< The lock-free pass's aggregation.
};

} // namespace davf::service

#endif // DAVF_SERVICE_SCHEDULER_HH
