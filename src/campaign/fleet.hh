/**
 * @file
 * The shard fleet: the one dispatch core both isolation modes share.
 *
 * A ShardDispatcher turns each cell it is handed into a queue of shard
 * jobs and drains the queue with one dispatch thread per worker slot,
 * work-stealing style, so a fast worker takes more shards and a slow
 * one never gates the queue. The retries and their backoff, the reply
 * rule, the stop flag, exclusions from loaded quarantine records, and
 * the quit-then-drain shutdown exist here once (docs/ROBUSTNESS.md, "Failure classification and
 * retries").
 *
 * A worker source derives from it and decides only what its transport
 * has to: how a worker joins (addSlot()), what a lost worker means (its
 * dispatch() override), and what happens to a shard that has used up
 * its retries (retriesExhausted()). Supervisor (supervisor.hh) respawns
 * a lost worker process in its slot and bisects an exhausted shard down
 * to a quarantined injection; net::Coordinator (net/coordinator.hh)
 * ends a lost node's slot and computes an exhausted or orphaned shard
 * locally.
 */

#ifndef DAVF_CAMPAIGN_FLEET_HH
#define DAVF_CAMPAIGN_FLEET_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/shard_link.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "obs/metrics.hh"
#include "util/subprocess.hh"

namespace davf {

/** The dispatch policy every worker source shares. */
struct DispatchOptions
{
    /** Re-dispatches per shard after a retryable failure; past them the
     *  source's out-of-retries step decides. */
    unsigned maxRetries = 2;

    /** Base of the exponential re-dispatch backoff (with jitter). */
    double backoffBaseMs = 50.0;

    /** A busy worker silent for this long is presumed dead or hung. */
    double heartbeatTimeoutMs = 10000.0;

    /** Per-attempt wall-clock budget for one shard; 0 = unlimited.
     *  Catches hangs that keep heartbeating. */
    double shardTimeoutMs = 0.0;

    /** Deterministic backoff jitter seed. */
    uint64_t seed = 1;

    /** Cooperative stop flag; checked between dispatches. */
    const std::atomic<bool> *stopFlag = nullptr;
};

/** How one dispatch ended (docs/ROBUSTNESS.md). */
enum class ShardOutcome : uint8_t {
    Ok,        ///< A well-formed reply arrived.
    Crash,     ///< The worker was lost (signal, exit, EOF, send failure).
    Timeout,   ///< Heartbeat silence or the shard deadline.
    Oom,       ///< The worker exceeded its memory cap (exit 86).
    BadOutput, ///< A torn or oversized frame, or an unparseable reply.
    Error,     ///< The worker reported a deterministic `err`.
};

/** The metrics-CSV name of @p outcome ("ok", "crash", ...). */
const char *shardOutcomeName(ShardOutcome outcome);

/**
 * Classify one exchange. @p exit is the reaped worker's status when the
 * source has one (process isolation), which decides crash vs. oom once
 * the exchange lost the worker (Eof, SendFailed).
 */
ShardOutcome classifyShardReply(ShardReply::Status status,
                                const ExitStatus &exit = {});

/** One dispatch: the exchange, classified, plus its wall time. */
struct ShardAttempt : ShardReply
{
    ShardOutcome outcome = ShardOutcome::Error;
    double wallMs = 0.0;

    /** No worker came up to take the shard. Retried like a lost
     *  worker, but never bisected or quarantined: the shard never
     *  ran. */
    bool startFailed = false;

    /** Everything but ok and `err` retires the worker and retries. */
    bool
    retryable() const
    {
        return outcome != ShardOutcome::Ok
            && outcome != ShardOutcome::Error;
    }
};

/** One shard of the cell in flight. */
struct ShardJob
{
    ShardSpec spec;
    unsigned attempts = 0; ///< Dispatches so far (under the fleet lock).
    InjectionCycleOutcome cycleOutcome;
    SavfResult savfOutcome;
};

/** What a source's out-of-retries step makes of a shard. */
struct Settlement
{
    enum class Kind : uint8_t {
        Done,  ///< The job's outcome is filled in; deliver it.
        Rerun, ///< Re-queue the (amended) job with a fresh retry count.
        Fail,  ///< Fail the cell with @c reason.
        Stop,  ///< The stop flag interrupted the step.
    };

    Kind kind = Kind::Fail;
    std::string reason;

    /** An injection the step quarantined (already persisted); the cell
     *  reports it whatever becomes of the cell. */
    std::optional<QuarantineRecord> quarantined = std::nullopt;
};

/**
 * A source's dispatch counters: the link metrics under @p prefix and
 * the re-dispatch counter @p retries.
 */
struct FleetMetrics
{
    FleetMetrics(const std::string &prefix, const std::string &retries);

    const std::string prefix;
    LinkMetrics link;
    obs::Counter retries;
};

/**
 * The dispatch core (see file comment). The campaign hands it whole
 * cells and stores the per-cycle outcomes it delivers exactly as in
 * thread mode. One cell runs at a time.
 */
class ShardDispatcher
{
  public:
    /** One dispatched cell's outcome. */
    struct CellResult
    {
        bool failed = false; ///< A shard failed beyond repair.
        std::string failReason;
        bool stopped = false; ///< The stop flag interrupted the cell.

        /** Injections newly quarantined by this cell (already
         *  persisted); only process isolation quarantines. */
        std::vector<QuarantineRecord> quarantined;
    };

    virtual ~ShardDispatcher();

    ShardDispatcher(const ShardDispatcher &) = delete;
    ShardDispatcher &operator=(const ShardDispatcher &) = delete;

    /**
     * Compute the given injection cycles of one (structure, delay)
     * cell. Every completed outcome is delivered through
     * @p on_cycle_done (serialized; any thread).
     */
    CellResult runDavfCell(
        const std::string &structure, double delay_fraction,
        const std::vector<uint64_t> &cycles,
        const SamplingConfig &sampling,
        const std::function<void(const InjectionCycleOutcome &)>
            &on_cycle_done);

    /** Compute one sAVF cell; @p out on success. */
    CellResult runSavfCell(const std::string &structure,
                           const SamplingConfig &sampling, SavfResult &out);

    /** Slots currently able to take shards. */
    size_t slotCount() const;

    /**
     * Stop admitting workers, send quit to every worker and drain each
     * link until EOF within a grace window (quitAndDrain), then close
     * every slot. A source's destructor calls it; idempotent.
     */
    void shutdown();

  protected:
    /** One worker place. A source derives its worker state from it. */
    struct Slot
    {
        virtual ~Slot() = default;

        /** The link to a running worker, or null when none runs. */
        virtual FrameLink *link() = 0;

        /** Release the worker at shutdown, after the drain. */
        virtual void close() = 0;

        std::string name; ///< For warnings.

      private:
        friend class ShardDispatcher;
        uint64_t id = 0;
        bool ended = false; ///< Under the fleet lock.
    };

    ShardDispatcher(const DispatchOptions &policy,
                    const FleetMetrics &metrics);

    /** Admit @p slot; a running cell gives it a dispatch thread at
     *  once. */
    void addSlot(std::shared_ptr<Slot> slot);

    /** End @p slot: its dispatch thread exits after the current job. */
    void endSlot(Slot &slot);

    /** Block until @p count slots are live, the stop flag is up, or
     *  @p timeout_ms passes; returns the live slot count. */
    size_t waitForSlots(size_t count, double timeout_ms);

    bool stopRequested() const;

    /**
     * One timed dispatch of @p spec on @p slot: counts and spans it
     * under the link metrics and hands the result to attempted().
     * @p attempt is the retry number the metrics record.
     */
    ShardAttempt dispatchTimed(Slot &slot, const ShardSpec &spec,
                               unsigned attempt);

    /** exchangeShard() under the policy's timeouts, classified without
     *  an exit status. */
    ShardAttempt exchange(FrameLink &link, const ShardSpec &spec,
                          double started_ms) const;

    /**
     * Ship @p spec to the worker in @p slot (started at @p started_ms).
     * A retryable ending must leave the worker retired — and the slot
     * ended if no worker will ever take its place.
     */
    virtual ShardAttempt dispatch(Slot &slot, const ShardSpec &spec,
                                  double started_ms) = 0;

    /** Every dispatchTimed() result (the source's per-attempt
     *  metrics). */
    virtual void
    attempted(const ShardSpec &, unsigned, const ShardAttempt &)
    {}

    /** @p job failed its last allowed attempt, @p last, on @p slot;
     *  its cell has quarantined @p quarantined injections so far. */
    virtual Settlement retriesExhausted(Slot &slot, ShardJob &job,
                                        const ShardAttempt &last,
                                        size_t quarantined) = 0;

    /** @p job is queued but no slot is left to take it. */
    virtual Settlement orphaned(ShardJob &job) = 0;

    /** Stop the source from adding slots (before the shutdown drain). */
    virtual void stopAdmitting() {}

    /** The sampled-wire order of a cell, to check @c known records
     *  against. */
    virtual std::vector<WireId>
    sampledWires(const std::string &, const SamplingConfig &)
    {
        return {};
    }

    /** Loaded quarantine records, excluded up front from every cell
     *  they name; set by the source before the first cell. */
    std::vector<QuarantineRecord> known;

    const DispatchOptions policy;

  private:
    struct Cell;

    CellResult runCell(std::vector<ShardJob> jobs,
                       const std::function<void(ShardJob &)> &deliver);
    void drain(Cell &cell, const std::shared_ptr<Slot> &slot);
    void settle(Cell &cell, size_t index, Settlement settled);
    void requeue(Cell &cell, size_t index, bool fresh);
    void finishJob(Cell &cell, ShardJob &job);
    std::vector<std::vector<size_t>>
    exclusions(const std::string &structure, double delay_fraction,
               const std::vector<uint64_t> &cycles,
               const SamplingConfig &sampling);

    const FleetMetrics &metrics;

    /** Serializes cells: the slots serve one cell at a time. */
    std::mutex cellMutex;

    /** Guards the slots and the running cell's queue and state. */
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::shared_ptr<Slot>> slots;
    uint64_t nextSlotId = 1;
};

} // namespace davf

#endif // DAVF_CAMPAIGN_FLEET_HH
