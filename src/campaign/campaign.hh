/**
 * @file
 * The resilient sweep executor.
 *
 * A campaign is the cross product (structures × delays [× sAVF]) over
 * one prepared VulnerabilityEngine, run cell by cell with:
 *
 *  - **a cache tier as its only durable record**: with
 *    CampaignOptions::cache set, every scheduled shard (injection cycle
 *    or sAVF cell) the cache already holds is adopted instead of being
 *    computed, and every computed shard is handed to the cache as soon
 *    as it completes. davf_run puts the result store behind it
 *    (--store-dir), which appends and syncs each shard once, so an
 *    interrupted or killed run loses at most the cycles in flight and
 *    the same command continues it; davf_serve answers every query that
 *    misses by running it as a one-structure campaign. Aggregates are
 *    derived from the cycle outcomes in cycle order, so they are
 *    bit-identical to an uninterrupted run at any thread count;
 *  - **fault isolation**: a cell whose failure rate crosses
 *    CampaignOptions::maxFailureRate is recorded as failed with its
 *    reason and the campaign moves on — one pathological structure
 *    cannot poison the sweep;
 *  - **cooperative stop**: when the stop flag (stop.hh) is raised, the
 *    engine returns between injections, the partial CSV is flushed,
 *    and run() reports interrupted.
 */

#ifndef DAVF_CAMPAIGN_CAMPAIGN_HH
#define DAVF_CAMPAIGN_CAMPAIGN_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/supervisor.hh"
#include "core/report.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"

namespace davf {

/** Where a cell's simulations execute. */
enum class IsolationMode : uint8_t {
    /** In-process, on the engine's thread pool (the default). */
    Thread,

    /**
     * In supervised worker processes (supervisor.hh): crashes, hangs,
     * and memory blowups inside one injection are contained, retried,
     * and — when persistent — bisected down to a quarantined single
     * injection while the sweep continues. Aggregates over surviving
     * injections are bit-identical to Thread mode at any worker count.
     */
    Process,

    /**
     * On remote worker nodes through a CampaignOptions::dispatcher
     * (the src/net coordinator), which this mode requires: shards
     * travel over TCP with heartbeats, retry, lost nodes retired, and
     * local fallback, and every completed outcome travels in the shared
     * outcome codec (core/shard.hh), so aggregates stay bit-identical
     * to Thread mode at any node count (docs/DISTRIBUTED.md).
     */
    Net,
};

/**
 * A campaign's optional cache tier (service/scheduler.hh's
 * shardCacheHooks puts the result store behind it). @c lookup fills the
 * outcome its spec's kind names and says whether it found one; @c store
 * receives every shard the campaign computed.
 */
struct ShardCache
{
    std::function<bool(const ShardSpec &, InjectionCycleOutcome &,
                       SavfResult &)>
        lookup;
    std::function<void(const ShardSpec &, const InjectionCycleOutcome &,
                       const SavfResult &)>
        store;
};

/** What to run and how to survive it. */
struct CampaignOptions
{
    /** Benchmark label recorded in the cell keys and CSV. */
    std::string benchmark = "unknown";

    /** Structure names, resolved against the registry at run(). */
    std::vector<std::string> structures;

    /** Delay fractions of the clock period, one davf cell each. */
    std::vector<double> delays;

    /** Also run a particle-strike sAVF cell per structure. */
    bool runSavf = false;

    /** Engine sampling, injection timeout included; the stop flag is
     *  campaign-managed. */
    SamplingConfig sampling;

    /** Failed-injection fraction beyond which a cell is abandoned;
     *  overrides sampling.maxFailureRate. */
    double maxFailureRate = 0.05;

    /** CSV output path (atomically rewritten); empty disables. */
    std::string csvPath;

    /** Label suffix for CSV rows (e.g. " (ECC)"). */
    std::string structureLabel;

    /** Cooperative stop flag (see stop.hh); may be null. */
    const std::atomic<bool> *stopFlag = nullptr;

    /** Execution isolation for cell simulations. */
    IsolationMode isolate = IsolationMode::Thread;

    /**
     * Worker pool and failure policy for IsolationMode::Process.
     * configHash, benchmark, seed, and stopFlag are filled in by the
     * campaign; the rest (workerArgv, workers, retries, quarantineDir,
     * ...) comes from the caller.
     */
    SupervisorOptions supervisor;

    /**
     * A caller-owned dispatcher (campaign/fleet.hh) that runs every
     * cell in any isolation mode, in place of the thread pool or a
     * campaign-made supervisor; required for IsolationMode::Net. It
     * must outlive run().
     */
    ShardDispatcher *dispatcher = nullptr;

    /** Shard cache tier; unset hooks disable it. */
    ShardCache cache;
};

/** Identity of one campaign cell. @c delay is canonicalDelay() text. */
struct CellKey
{
    std::string kind; ///< "davf" or "savf".
    std::string benchmark;
    std::string structure;
    std::string delay;
};

/** One cell's outcome as the campaign saw it. */
struct CampaignCellResult
{
    CellKey key;
    double delay = 0.0; ///< The delay fraction key.delay names.
    bool failed = false;
    std::string failReason;

    /** Why a cell this run computed failed: ExcessiveFailures when its
     *  aggregate was untrustworthy, Internal when dispatch failed it. */
    ErrorKind failKind = ErrorKind::Internal;

    DelayAvfResult davf;
    SavfResult savf;
};

/** The whole sweep's outcome. */
struct CampaignSummary
{
    std::vector<CampaignCellResult> cells;
    bool interrupted = false;
    uint64_t cellsComputed = 0;
    uint64_t cellsFailed = 0;

    /** Shards (injection cycles and sAVF cells) the cache tier served,
     *  and shards this run computed. */
    uint64_t shardsFromCache = 0;
    uint64_t shardsComputed = 0;

    /** Process isolation only: injections newly quarantined this run
     *  (already excluded from the affected cells' denominators). */
    std::vector<QuarantineRecord> quarantined;
};

/**
 * The identity of a campaign configuration, which process isolation
 * stamps on its quarantine records. Deliberately excludes thread count
 * and operational limits (timeout, failure rate, paths).
 */
std::string campaignConfigHash(const CampaignOptions &options);

/**
 * The report rows (core/report.hh) of @p summary's completed cells:
 * the DelayAVF rows in cell order, then the sAVF rows, each structure
 * name suffixed with @p label — the rows of davf_run --json and of a
 * davf_serve reply.
 */
std::vector<ReportRow> reportRows(const CampaignSummary &summary,
                                  const std::string &label);

/** The sweep executor (see file comment). */
class Campaign
{
  public:
    Campaign(VulnerabilityEngine &engine,
             const StructureRegistry &structures,
             CampaignOptions options);

    /**
     * Run the sweep, computing only the shards the cache tier lacks.
     * Throws DavfError{NotFound} for an unknown structure name.
     */
    CampaignSummary run();

  private:
    void flushCsv(const CampaignSummary &summary) const;

    VulnerabilityEngine *engine;
    const StructureRegistry *registry;
    CampaignOptions options;
    std::unique_ptr<Supervisor> supervisor; ///< Process mode's dispatcher.
};

} // namespace davf

#endif // DAVF_CAMPAIGN_CAMPAIGN_HH
