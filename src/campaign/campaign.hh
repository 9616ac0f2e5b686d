/**
 * @file
 * The resilient sweep executor.
 *
 * A campaign is the cross product (structures × delays [× sAVF]) over
 * one prepared VulnerabilityEngine, run cell by cell with:
 *
 *  - **journaling**: after every completed cell — and after every
 *    completed injection cycle inside a cell — the journal is rewritten
 *    atomically (checkpoint.hh), so no interruption point loses more
 *    than one injection cycle of work;
 *  - **resume**: a rerun with CampaignOptions::resume adopts every
 *    journaled cycle outcome and cell verdict and derives each
 *    aggregate from the outcomes again, reproducing bit-identical
 *    results versus an uninterrupted run, at any thread count (the
 *    engine's per-cycle outcomes are deterministic and aggregated in
 *    cycle order);
 *  - **fault isolation**: a cell whose failure rate crosses
 *    CampaignOptions::maxFailureRate is recorded as failed with its
 *    reason and the campaign moves on — one pathological structure
 *    cannot poison the sweep;
 *  - **cooperative stop**: when the stop flag (stop.hh) is raised, the
 *    engine returns between injections, the journal and the partial CSV
 *    are flushed, and run() reports interrupted;
 *  - **cache tier**: with CampaignOptions::cache set, a shard the cache
 *    already holds is adopted like a journaled cycle instead of being
 *    computed, and every computed shard is handed to the cache. davf_run
 *    puts the result store behind it, and davf_serve answers every
 *    query that misses by running it as a one-structure campaign.
 */

#ifndef DAVF_CAMPAIGN_CAMPAIGN_HH
#define DAVF_CAMPAIGN_CAMPAIGN_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
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
     * local fallback, and every completed outcome flows through the
     * same journal grammar, so aggregates stay bit-identical to Thread
     * mode at any node count (docs/DISTRIBUTED.md).
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
    /** Benchmark label recorded in the journal and CSV. */
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

    /** Journal path; empty disables checkpointing. */
    std::string checkpointPath;

    /** Adopt an existing journal at checkpointPath. */
    bool resume = false;

    /** CSV output path (atomically rewritten); empty disables. */
    std::string csvPath;

    /** Label suffix for CSV rows (e.g. " (ECC)"). */
    std::string structureLabel;

    /** Cooperative stop flag (see stop.hh); may be null. */
    const std::atomic<bool> *stopFlag = nullptr;

    /** Test hook: called after every journal write. */
    std::function<void()> onCheckpointSaved;

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

/** One cell's outcome as the campaign saw it. */
struct CampaignCellResult
{
    CheckpointKey key;
    double delay = 0.0;          ///< Parsed back from key.delay.
    bool fromCheckpoint = false; ///< Journaled verdict, not recomputed.
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
    uint64_t cellsFromCheckpoint = 0;
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
 * The identity of a campaign configuration, as recorded in the journal.
 * Deliberately excludes thread count and operational limits (timeout,
 * failure rate, paths): those may change across a resume without
 * affecting results.
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
     * Run (or resume) the sweep. Throws DavfError for unusable input:
     * unknown structure name, a corrupt journal, or a journal written
     * by a different configuration.
     */
    CampaignSummary run();

  private:
    void flushCsv(const CampaignSummary &summary) const;
    void save() const;

    VulnerabilityEngine *engine;
    const StructureRegistry *registry;
    CampaignOptions options;
    Checkpoint journal;
    std::unique_ptr<Supervisor> supervisor; ///< Process mode's dispatcher.
};

} // namespace davf

#endif // DAVF_CAMPAIGN_CAMPAIGN_HH
