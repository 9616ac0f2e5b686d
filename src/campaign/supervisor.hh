/**
 * @file
 * Supervised, process-isolated campaign execution: the worker-process
 * source of the shard fleet (fleet.hh).
 *
 * Thread-mode campaigns share one address space with the engine: a
 * crash, a runaway allocation, or a hard hang inside a single injection
 * takes the whole sweep down. Process isolation puts that blast radius
 * inside disposable workers:
 *
 *  - the campaign re-executes its own binary in a hidden worker mode
 *    (the worker builds the same engine, then serves shards through
 *    the shard link, shard_link.hh, over its stdin/stdout pipes);
 *  - each of the N fleet slots spawns its worker lazily and waits for
 *    its hello; a worker that crashes, hangs past its deadline, trips
 *    its memory cap, or garbles a reply is reaped (its exit status
 *    tells crash from oom) and respawned in the same slot;
 *  - the fleet retries failed shards with exponential backoff; a shard
 *    that keeps crashing is **bisected** over its sampled-wire index
 *    range down to the single offending injection, which is recorded
 *    as a quarantine record and excluded (tallied as skipped with
 *    reason "quarantined", leaving the AVF denominators) while the rest
 *    of the cell completes. A worker that never starts is not a crash
 *    of the shard: it is never bisected, and fails the cell once its
 *    retries are used up;
 *  - shard replies carry the exact outcome codec (core/shard.hh), so results
 *    aggregate bit-identically to thread mode at any worker count.
 *
 * See docs/ROBUSTNESS.md for the wire protocol and the quarantine
 * record format.
 */

#ifndef DAVF_CAMPAIGN_SUPERVISOR_HH
#define DAVF_CAMPAIGN_SUPERVISOR_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/fleet.hh"
#include "campaign/shard_link.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "util/error.hh"
#include "util/subprocess.hh"

namespace davf {

/** How worker processes are run and their crashes quarantined. */
struct WorkerPoolOptions
{
    /**
     * Command line that starts one worker process (argv[0] is the
     * executable path; typically Subprocess::selfExePath() plus the
     * original arguments plus the hidden worker flag).
     */
    std::vector<std::string> workerArgv;

    /** Worker process pool size. */
    unsigned workers = 1;

    /** RLIMIT_AS cap per worker in MiB; 0 = unlimited. */
    uint64_t workerMemMb = 0;

    /** Directory for quarantine records; empty keeps them in memory. */
    std::string quarantineDir;

    /** Per-attempt metrics CSV (appended); empty disables. */
    std::string metricsCsvPath;

    /** Campaign identity stamped into quarantine records. */
    std::string configHash;
    std::string benchmark;
};

/** The whole process-isolation configuration. */
struct SupervisorOptions : DispatchOptions, WorkerPoolOptions
{};

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

/** The worker-process source of the shard fleet (see file comment). */
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
     * and the query scheduler's campaigns each bring their own
     * sampling.
     */
    Supervisor(const VulnerabilityEngine &engine,
               const StructureRegistry &registry,
               SupervisorOptions options);
    ~Supervisor() override;

  private:
    struct Worker; // One slot's worker process.

    ShardAttempt dispatch(Slot &slot, const ShardSpec &spec,
                          double started_ms) override;
    void attempted(const ShardSpec &spec, unsigned attempt,
                   const ShardAttempt &result) override;
    Settlement retriesExhausted(Slot &slot, ShardJob &job,
                                const ShardAttempt &last,
                                size_t quarantined) override;
    Settlement orphaned(ShardJob &job) override;
    std::vector<WireId> sampledWires(const std::string &structure,
                                     const SamplingConfig &sampling) override;

    void ensureWorker(Worker &worker);

    const VulnerabilityEngine *engine;
    const StructureRegistry *registry;
    const WorkerPoolOptions options;
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
