/**
 * @file
 * The shard link: the one protocol both isolation transports speak,
 * whatever carries the frames — a worker process's pipes
 * (supervisor.hh) or a node's TCP connection (net/coordinator.hh).
 *
 * Parent side: exchangeShard() (one `shard <spec>` request and its
 * reply, returned as a transport-neutral ShardReply), the retry
 * backoff, and the quit-then-drain shutdown, all driven by the one
 * dispatch core, ShardDispatcher (fleet.hh). Worker side: the
 * serveShards() loop. Replies use the journal token grammar
 * (checkpoint.hh), which is why the link lives in src/campaign, and
 * they aggregate bit-identically to thread mode in every transport
 * (docs/ROBUSTNESS.md, "Failure classification and retries").
 */

#ifndef DAVF_CAMPAIGN_SHARD_LINK_HH
#define DAVF_CAMPAIGN_SHARD_LINK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "obs/metrics.hh"
#include "util/subprocess.hh"

namespace davf {

/**
 * One quarantined injection: everything needed to reproduce it in
 * isolation (the whole engine configuration is implied by configHash;
 * the record pins the cell and the exact sampled-wire index).
 */
struct QuarantineRecord
{
    std::string configHash;
    std::string benchmark;
    std::string structure;
    double delayFraction = 0.0;
    uint64_t cycle = 0;
    size_t wireIndex = 0; ///< Index into the sampled-wire order.
    WireId wire = 0;      ///< The underlying wire, for reproduction.
    uint64_t seed = 0;    ///< Sampling seed the index is relative to.
    std::string reason;   ///< e.g. "killed by signal 6 (Aborted)".

    bool operator==(const QuarantineRecord &) const = default;
};

/**
 * One transport's link counters and spans, named `<prefix>.dispatches`,
 * `<prefix>.heartbeats`, `<prefix>.backoff_waits`,
 * `<prefix>.time.dispatch_ns`, `<prefix>.time.backoff_ns`,
 * `<prefix>.shard_wall_us` and the `<prefix>.dispatch` /
 * `<prefix>.backoff` spans (docs/OBSERVABILITY.md).
 */
struct LinkMetrics
{
    explicit LinkMetrics(const std::string &prefix);

    const std::string dispatchSpan;
    const std::string backoffSpan;
    obs::Counter dispatches;
    obs::Counter heartbeats;
    obs::Counter backoffWaits;
    obs::Counter dispatchNs;
    obs::Counter backoffNs;
    obs::ValueHistogram shardWallUs;
};

/** How one shard exchange ended, before any transport policy. */
struct ShardReply
{
    enum class Status : uint8_t {
        Ok,          ///< An `ok davf|savf` reply parsed.
        SendFailed,  ///< The request frame could not be written.
        Eof,         ///< The worker closed its stream mid-shard.
        Torn,        ///< A torn or oversized frame, or a read error.
        Silent,      ///< No frame within the heartbeat window.
        Deadline,    ///< The shard budget ran out (heartbeats or not).
        BadReply,    ///< An intact frame with an unparseable payload.
        WorkerError, ///< The worker reported `err <kind> <message>`.
    };

    Status status = Status::Eof;
    std::string detail;                 ///< Human-readable cause.
    InjectionCycleOutcome cycleOutcome; ///< Ok cycle shards.
    SavfResult savfOutcome;             ///< Ok sAVF shards.

    /** @name The worker's self-reported rusage (an ok reply's suffix) */
    /// @{
    long rssKb = 0;
    double userSec = 0.0;
    double sysSec = 0.0;
    /// @}
};

/**
 * Ship @p spec over @p link and wait for its reply. Each read waits at
 * most @p heartbeat_timeout_ms; with @p shard_timeout_ms > 0 the whole
 * exchange must also finish by @p started_ms + @p shard_timeout_ms
 * (nowMs() clock), and only that deadline ends the wait while the
 * worker keeps heartbeating. Heartbeats count in @p metrics.
 */
ShardReply exchangeShard(FrameLink &link, const ShardSpec &spec,
                         double heartbeat_timeout_ms,
                         double shard_timeout_ms, double started_ms,
                         const LinkMetrics &metrics);

/**
 * The wait before retry number @p attempt of @p spec:
 * base * 2^min(attempt, 10), plus a deterministic FNV jitter in
 * [0, base) keyed by the shard, the attempt, and @p seed — distinct
 * shards desynchronize their retries without shared clock or RNG
 * state.
 */
double retryBackoffMs(double base_ms, const ShardSpec &spec,
                      unsigned attempt, uint64_t seed);

/** Sleep retryBackoffMs() under @p metrics; no-op for base_ms <= 0. */
void sleepRetryBackoff(double base_ms, const ShardSpec &spec,
                       unsigned attempt, uint64_t seed,
                       const LinkMetrics &metrics);

/**
 * The shutdown discipline: send `quit` on every link, then drain each
 * until its EOF within one @p grace_ms window. A reply racing the quit
 * is consumed instead of being misread as a failure, and a worker
 * blocked writing it can finish and exit cleanly. Links whose quit
 * cannot be sent are already dead and are skipped.
 */
void quitAndDrain(const std::vector<FrameLink *> &links, double grace_ms);

/** Per-shard interception in serveShards() (fault injection). */
class ShardHook
{
  public:
    virtual ~ShardHook() = default;

    /** Before computing @p spec; false ends the serve loop. */
    virtual bool beforeShard(const ShardSpec &spec) = 0;

    /** With @p reply about to be sent; false withholds it. */
    virtual bool beforeReply(const ShardSpec &spec,
                             std::string &reply) = 0;
};

/** Run @p work while sending `hb` frames on @p link every 200 ms, as
 *  serveShards() does while a shard computes; nothing else may write
 *  to @p link meanwhile. */
void withHeartbeat(FrameLink &link, const std::function<void()> &work);

/** Why serveShards() returned. */
enum class ServeEnd : uint8_t {
    Quit, ///< The parent sent `quit`.
    Eof,  ///< The parent closed the stream.
    Hook, ///< The ShardHook ended the loop.
};

/**
 * The worker serve loop: answer `shard <spec>` frames on @p link one at
 * a time with sampling.threads forced to 1, sending `hb` every 200 ms
 * while computing and then `ok davf|savf <fields> rss <kb> <user>
 * <sys>` or `err <kind> <message>`. A std::bad_alloc exits the process
 * with code 86, the out-of-memory convention. Throws DavfError when the
 * link breaks.
 */
ServeEnd serveShards(FrameLink &link, VulnerabilityEngine &engine,
                     const StructureRegistry &registry,
                     ShardHook *hook = nullptr);

} // namespace davf

#endif // DAVF_CAMPAIGN_SHARD_LINK_HH
