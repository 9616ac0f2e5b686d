/**
 * @file
 * Supervised, process-isolated campaign execution.
 *
 * Thread-mode campaigns share one address space with the engine: a
 * crash, a runaway allocation, or a hard hang inside a single injection
 * takes the whole sweep down. Process isolation puts that blast radius
 * inside disposable workers:
 *
 *  - the campaign re-executes its own binary in a hidden worker mode
 *    (the worker builds the same engine, then serves shards through
 *    the shard link, shard_link.hh, over its stdin/stdout pipes);
 *  - each shard (one injection cycle, or one whole sAVF evaluation) is
 *    dispatched to a pool of N workers; a worker that crashes, hangs
 *    past its deadline, or trips its memory cap is killed and respawned;
 *  - failed shards are retried with exponential backoff; a shard that
 *    keeps crashing is **bisected** over its sampled-wire index range
 *    down to the single offending injection, which is recorded as a
 *    quarantine record and excluded (tallied as skipped with reason
 *    "quarantined", leaving the AVF denominators) while the rest of the
 *    cell completes;
 *  - shard replies carry the exact journal token grammar, so results
 *    aggregate bit-identically to thread mode at any worker count.
 *
 * See docs/ROBUSTNESS.md for the wire protocol and the quarantine
 * record format.
 */

#ifndef DAVF_CAMPAIGN_SUPERVISOR_HH
#define DAVF_CAMPAIGN_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/shard_link.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "util/error.hh"
#include "util/subprocess.hh"

namespace davf {

/** How workers are run and how their failures are handled. */
struct SupervisorOptions
{
    /**
     * Command line that starts one worker process (argv[0] is the
     * executable path; typically Subprocess::selfExePath() plus the
     * original arguments plus the hidden worker flag).
     */
    std::vector<std::string> workerArgv;

    /** Worker process pool size. */
    unsigned workers = 1;

    /** Re-dispatch attempts per shard beyond the first. */
    unsigned maxRetries = 2;

    /** Base of the exponential retry backoff (with jitter). */
    double backoffBaseMs = 50.0;

    /** A worker silent for this long is presumed hung and killed. */
    double heartbeatTimeoutMs = 10000.0;

    /** Per-attempt wall-clock budget for one shard; 0 = unlimited.
     *  Catches hangs that keep heartbeating. */
    double shardTimeoutMs = 0.0;

    /** Budget for a fresh worker's hello (covers engine build). */
    double startTimeoutMs = 120000.0;

    /** RLIMIT_AS cap per worker in MiB; 0 = unlimited. */
    uint64_t workerMemMb = 0;

    /** Directory for quarantine records; empty keeps them in memory. */
    std::string quarantineDir;

    /** Most injections quarantined per cell before giving up on it. */
    unsigned maxQuarantinePerCell = 4;

    /** Per-attempt metrics CSV (appended); empty disables. */
    std::string metricsCsvPath;

    /** Campaign identity stamped into quarantine records. */
    std::string configHash;
    std::string benchmark;

    /** Deterministic backoff jitter seed. */
    uint64_t seed = 1;

    /** Cooperative stop flag; checked between attempts. */
    const std::atomic<bool> *stopFlag = nullptr;
};

/** One-line text form (the "davf-quarantine v1" record). */
std::string serializeQuarantineRecord(const QuarantineRecord &record);

/** Parse a serializeQuarantineRecord() line; malformed input is Err. */
Result<QuarantineRecord> parseQuarantineRecord(const std::string &text);

/** Write @p record as a uniquely named file under @p dir. */
void saveQuarantineRecord(const std::string &dir,
                          const QuarantineRecord &record);

/** Load every parseable record under @p dir (missing dir = empty). */
std::vector<QuarantineRecord>
loadQuarantineRecords(const std::string &dir);

/** The process-mode failure taxonomy (docs/ROBUSTNESS.md). */
enum class WorkerOutcome : uint8_t {
    Ok,        ///< A well-formed reply arrived.
    Crash,     ///< The worker died (signal or nonzero exit).
    Timeout,   ///< Heartbeat or shard deadline expired; killed.
    Oom,       ///< The worker exceeded its memory cap (exit 86).
    BadOutput, ///< A torn or oversized frame, or an unparseable reply.
    Error,     ///< The worker reported a deterministic DavfError.
    Stopped,   ///< The cooperative stop flag interrupted us.
};

/** The metrics-CSV name of @p outcome ("ok", "crash", ...). */
const char *workerOutcomeName(WorkerOutcome outcome);

/**
 * Classify one exchange with a worker process; @p exit is the reaped
 * worker's status, which decides crash vs. oom once the exchange lost
 * the worker (Eof, SendFailed).
 */
WorkerOutcome classifyWorkerReply(ShardReply::Status status,
                                  const ExitStatus &exit);

/** The worker pool + failure policy (see file comment). */
class Supervisor : public ShardDispatcher
{
  public:
    /**
     * Bisection resolves sampled wires through @p engine and
     * @p registry, which must outlive the supervisor. Quarantine
     * records under options.quarantineDir whose config hash matches
     * options.configHash are loaded here and excluded up front.
     * Records found later are only returned, never applied to later
     * cells: a campaign dispatches each (structure, delay) cell once,
     * and the query scheduler's cells each bring their own sampling.
     */
    Supervisor(const VulnerabilityEngine &engine,
               const StructureRegistry &registry,
               SupervisorOptions options);
    ~Supervisor() override;

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /**
     * Compute the given injection cycles of one (structure, delay)
     * cell across the worker pool, retrying, bisecting, and
     * quarantining persistent failures (see file comment). New
     * quarantine records come back in CellResult::quarantined.
     */
    CellResult runDavfCell(
        const std::string &structure, double delay_fraction,
        const std::vector<uint64_t> &cycles,
        const SamplingConfig &sampling,
        const std::function<void(const InjectionCycleOutcome &)>
            &on_cycle_done) override;

    /** Compute one sAVF cell in a worker (retried, never bisected). */
    CellResult runSavfCell(const std::string &structure,
                           const SamplingConfig &sampling,
                           SavfResult &out) override;

    /** Shut every worker down (quit, drain, then escalating kill). */
    void shutdown();

  private:
    struct Slot;      // One worker process and its state.
    struct Attempt;   // One shard dispatch and its classified outcome.
    struct CellState; // Shared per-cell dispatch bookkeeping.

    bool stopRequested() const;
    void ensureWorker(Slot &slot);
    void retireWorker(Slot &slot, double grace_ms);
    Attempt dispatchOnce(Slot &slot, const ShardSpec &spec);
    Attempt dispatchWithRetries(Slot &slot, const ShardSpec &spec);
    void recordMetrics(const ShardSpec &spec, unsigned attempt,
                       const Attempt &outcome);

    /**
     * Narrow a persistently failing cycle shard to single offending
     * sampled-wire indices, quarantining up to the per-cell budget.
     * Returns the final full-range attempt (success, or the failure
     * that exhausted the budget).
     */
    Attempt bisectAndQuarantine(Slot &slot, ShardSpec spec,
                                const std::vector<WireId> &wires,
                                CellState &cell);

    const VulnerabilityEngine *engine;
    const StructureRegistry *registry;
    SupervisorOptions options;
    /// Loaded at construction, read-only after.
    std::vector<QuarantineRecord> known;
    std::vector<std::unique_ptr<Slot>> slots;
    std::mutex metricsMutex;
};

/**
 * The worker side: serve shard requests over stdin/stdout until EOF or
 * a quit frame. Called by tools after building the engine when the
 * hidden worker flag is present. Returns the process exit code.
 */
int runCampaignWorker(VulnerabilityEngine &engine,
                      const StructureRegistry &registry);

} // namespace davf

#endif // DAVF_CAMPAIGN_SUPERVISOR_HH
