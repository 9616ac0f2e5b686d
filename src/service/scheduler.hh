/**
 * @file
 * The davf_serve query scheduler.
 *
 * Decomposes one client query (structure × delay list [× sAVF]) into
 * the same shard units the process-isolated campaign uses — one
 * DelayAVF injection cycle or one whole sAVF evaluation (core/shard) —
 * and resolves each shard against the persistent result store before
 * ever touching the engine:
 *
 *  - **store hit**: the shard's outcome payload is parsed back from the
 *    journal token grammar; no simulation runs.
 *  - **store miss**: the shard is computed — in-process on the engine's
 *    thread pool, or dispatched to supervised worker processes when the
 *    scheduler was given a worker command line — and the fresh outcome
 *    is written back to the store as it completes.
 *
 * Aggregation is VulnerabilityEngine::aggregateDelayAvf() over the
 * cell's outcomes, a pure function of them: the same bytes delayAvf()
 * returns with the outcomes supplied as DelayAvfProgress::completed (the
 * proven checkpoint-resume path), so a reply assembled from cached
 * shards is bit-identical to a cold evaluation at any thread or worker
 * count. Only when no outcome is quarantine-free does aggregation fall
 * back to delayAvf(), which runs the STA filter.
 *
 * Concurrency: the engine's delayAvf/delayAvfCycle entry points share
 * mutable snapshot and STA state and must not run concurrently, so one
 * mutex serializes all *compute* (each compute still fans out
 * internally across the engine thread pool) and the STA fallback. A
 * cell whose every shard is a store hit is looked up and aggregated
 * without that lock, so warm queries proceed in parallel with each
 * other and with another client's misses. A miss re-checks the store
 * after acquiring the compute lock: identical shards requested by
 * concurrent clients are therefore computed once — the second client
 * finds them already stored (tallied as inFlightHits, a subset of
 * shardHits) and only aggregates, still under the lock.
 */

#ifndef DAVF_SERVICE_SCHEDULER_HH
#define DAVF_SERVICE_SCHEDULER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "campaign/fleet.hh"
#include "core/report.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "service/protocol.hh"
#include "service/result_store.hh"
#include "util/stats.hh"

namespace davf::service {

/**
 * The content-addressed store key of one shard under one workspace
 * build fingerprint. Shared by the query scheduler and the net
 * coordinator's cache tier (src/net/coordinator.hh), so a shard
 * computed by either is a hit for the other.
 */
std::string shardStoreKey(const std::string &fingerprint,
                          const ShardSpec &spec);

/**
 * The net coordinator's shared cache tier over @p store: the
 * CoordinatorOptions::cache pair (net/coordinator.hh) for shards keyed
 * under @p fingerprint. They use the same shard record codec as the
 * query scheduler, so both writers persist the same bytes: a cycle
 * outcome is written in record grammar v3 exactly when it carries
 * attribution (plain outcomes stay byte-identical v2), and a payload
 * that fails to parse strictly — damage or trailing tokens — is a miss
 * the caller recomputes.
 */
using ShardCacheHooks = ShardCache;
ShardCacheHooks shardCacheHooks(ResultStore &store,
                                std::string fingerprint);

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

        /**
         * Worker command line for process-isolated compute; empty runs
         * misses in-process on the engine thread pool.
         */
        std::vector<std::string> workerArgv;

        /** Worker pool size / retry budget / memory cap (process mode). */
        unsigned workers = 1;
        unsigned maxRetries = 2;
        uint64_t workerMemMb = 0;
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
    ~QueryScheduler();

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
     * cooperatively between injections (Err{Timeout, "cancelled"}).
     * Unknown structures are Err{NotFound}; out-of-domain delays are
     * Err{OutOfRange}; engine failures surface as their own kinds.
     */
    Result<QueryReply> run(const QuerySpec &query,
                           const std::atomic<bool> *cancel = nullptr);

    /** The store key of @p spec under this scheduler's fingerprint. */
    std::string shardKey(const ShardSpec &spec) const;

    SchedulerStats stats() const;

    /**
     * Scheduler + store counters and the per-stage latency histograms
     * (lookup / compute / aggregate, milliseconds) as one JSON line —
     * the body of the protocol's "ok stats" reply.
     */
    std::string statsJson() const;

  private:
    Result<DelayAvfResult> runDavfCell(const Structure &structure,
                                       const QuerySpec &query, double d,
                                       const std::atomic<bool> *cancel,
                                       QueryReply &reply);
    Result<SavfResult> runSavfCell(const Structure &structure,
                                   const QuerySpec &query,
                                   const std::atomic<bool> *cancel,
                                   QueryReply &reply);

    /**
     * Aggregate a cell whose every cycle is in @p completed, without
     * the compute lock (VulnerabilityEngine::aggregateDelayAvf);
     * std::nullopt when it needs the STA fallback, which only
     * delayAvf() under engineMutex may run.
     */
    std::optional<DelayAvfResult>
    aggregateHits(const Structure &structure,
                  const SamplingConfig &sampling,
                  std::span<const InjectionCycleOutcome> completed);

    /** Persist one freshly computed outcome under its shard key. */
    void storeOutcome(ShardSpec spec,
                      const InjectionCycleOutcome &outcome);

    VulnerabilityEngine *engine;
    const StructureRegistry *registry;
    std::string fingerprint;
    ResultStore *store;
    Options options;

    /** Serializes every engine compute (see file comment). */
    std::mutex engineMutex;

    /** Worker processes for misses when Options::workerArgv is set. */
    std::unique_ptr<ShardDispatcher> dispatcher;

    mutable std::mutex statsMutex;
    SchedulerStats counters;
    Histogram lookupMs;    ///< Store-resolution time per cell.
    Histogram computeMs;   ///< Simulation time per cell with misses.
    Histogram aggregateMs; ///< Aggregation-only time per cell.
};

} // namespace davf::service

#endif // DAVF_SERVICE_SCHEDULER_HH
