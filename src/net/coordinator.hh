/**
 * @file
 * The distributed campaign coordinator: the shard link
 * (campaign/shard_link.hh) spoken to a fleet of remote TCP worker
 * nodes instead of local child processes.
 *
 * Topology: the coordinator owns a listening socket; davf_worker
 * processes connect, handshake (versioned hello carrying the node
 * name and workspace fingerprint — a mismatch is rejected), and join
 * the fleet. Each campaign cell becomes a queue of shard jobs; one
 * dispatcher thread per node pulls jobs work-stealing style, so fast
 * nodes naturally take more shards and a slow node never gates the
 * queue.
 *
 * Failure policy (classifyNodeReply() maps each exchange):
 *  - a node silent past the heartbeat timeout — or past the shard
 *    deadline while still heartbeating — is presumed dead/hung, its
 *    connection closed, and its shard re-dispatched;
 *  - retryable failures (lost node, timeout, unparseable reply) are
 *    re-queued with deterministic-jitter exponential backoff, up to
 *    maxRetries per shard; past that the shard falls back to **local
 *    in-process execution**, so infrastructure failures never fail a
 *    cell;
 *  - a node that keeps failing shards (maxNodeFailures) is
 *    quarantined: disconnected and removed from the fleet;
 *  - when the fleet drains to zero mid-cell, the remaining jobs run
 *    locally — a campaign with no (surviving) workers degrades to
 *    exactly a thread-mode run;
 *  - a deterministic worker-reported error ("err <kind> ...") fails
 *    the cell, as in the other modes — re-dispatching cannot fix it.
 *
 * The optional cache callbacks let the content-addressed result store
 * act as a shared tier: a shard any node (or any earlier run) already
 *computed is a store hit, not a recompute, and fresh outcomes are
 * written back as they arrive.
 *
 * Replies carry the exact journal token grammar, and aggregation runs
 * through the checkpoint-resume path, so results are byte-identical
 * to thread/process mode at any node count (docs/DISTRIBUTED.md).
 */

#ifndef DAVF_NET_COORDINATOR_HH
#define DAVF_NET_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/shard_link.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "net/frame.hh"

namespace davf::net {

/** Fleet and failure policy for one Coordinator. */
struct CoordinatorOptions
{
    /** Expected workspace fingerprint; a hello naming another one is
     *  rejected (empty accepts anything — tests only). */
    std::string fingerprint;

    /** Re-dispatch attempts per shard beyond the first; past this the
     *  shard runs locally. */
    unsigned maxRetries = 2;

    /** Base of the exponential re-dispatch backoff (with jitter). */
    double backoffBaseMs = 50.0;

    /** A busy node silent for this long is presumed dead. */
    double heartbeatTimeoutMs = 10000.0;

    /** Per-attempt wall-clock budget for one shard; 0 = unlimited.
     *  Catches stalled nodes that keep heartbeating. */
    double shardTimeoutMs = 0.0;

    /** Retryable failures before a node is quarantined. */
    unsigned maxNodeFailures = 3;

    /** Deterministic backoff jitter seed. */
    uint64_t seed = 1;

    /** Cooperative stop flag; checked between dispatches. */
    const std::atomic<bool> *stopFlag = nullptr;

    /**
     * @name Local execution + shared cache tier
     * localCycle/localSavf compute one shard in-process (the graceful
     * degradation path; engine calls are serialized internally by the
     * coordinator). cacheLookup/cacheStore, when set, resolve shards
     * against the content-addressed result store before dispatching
     * and persist fresh outcomes (service/scheduler.hh's shard record
     * codec). Both use the outcome the spec's kind names: the cycle
     * outcome for a Cycle shard, the sAVF result otherwise; a lookup
     * fills it and returns true on a hit.
     */
    /// @{
    std::function<InjectionCycleOutcome(const ShardSpec &)> localCycle;
    std::function<SavfResult(const ShardSpec &)> localSavf;
    std::function<bool(const ShardSpec &, InjectionCycleOutcome &,
                       SavfResult &)>
        cacheLookup;
    std::function<void(const ShardSpec &, const InjectionCycleOutcome &,
                       const SavfResult &)>
        cacheStore;
    /// @}
};

/** The net-mode failure taxonomy (docs/DISTRIBUTED.md). */
enum class NodeOutcome : uint8_t {
    Ok,        ///< The reply parsed.
    NodeLost,  ///< EOF, send failure, or a torn frame: retire the node.
    Timeout,   ///< Heartbeat silence or shard deadline: retire the node.
    BadOutput, ///< Intact frame, unparseable payload: keep the node.
    Error,     ///< Deterministic worker-reported "err": fail the cell.
};

/** Classify one exchange with a node. */
NodeOutcome classifyNodeReply(ShardReply::Status status);

/** The node fleet + dispatch policy (see file comment). */
class Coordinator : public ShardDispatcher
{
  public:
    /** Takes ownership of @p listener and starts accepting nodes. */
    Coordinator(ListenSocket listener, CoordinatorOptions options);
    ~Coordinator() override;

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** The bound port (for --listen HOST:0). */
    uint16_t port() const { return listenPort; }

    /**
     * Block until @p count nodes are connected or @p timeout_ms
     * passes; returns the connected-node count either way.
     */
    size_t waitForNodes(size_t count, double timeout_ms);

    /** Currently connected (non-quarantined) nodes. */
    size_t nodeCount() const;

    CellResult runDavfCell(
        const std::string &structure, double delay_fraction,
        const std::vector<uint64_t> &cycles,
        const SamplingConfig &sampling,
        const std::function<void(const InjectionCycleOutcome &)>
            &on_cycle_done) override;

    CellResult runSavfCell(const std::string &structure,
                           const SamplingConfig &sampling,
                           SavfResult &out) override;

    /**
     * Send quit to every node and **drain** each connection until EOF
     * (within a grace window) before closing, so a quit frame racing
     * an in-flight result is consumed, not reported as a node failure.
     * Called by the destructor; idempotent.
     */
    void shutdown();

  private:
    struct Node;
    struct Job;
    struct CellCtx;

    bool stopRequested() const;
    void acceptLoop();
    void drainNode(const std::shared_ptr<Node> &node, CellCtx &ctx);
    void computeLocally(CellCtx &ctx, Job &job);
    void finishJob(CellCtx &ctx, Job &job);
    CellResult runCell(std::vector<Job> jobs,
                       const std::function<void(Job &)> &deliver);

    /** Healthy-fleet snapshot (for spawning cell dispatchers). */
    std::vector<std::shared_ptr<Node>> fleetSnapshot() const;

    CoordinatorOptions options;
    int listenFd = -1;
    uint16_t listenPort = 0;

    mutable std::mutex fleetMutex;
    std::condition_variable fleetCv;
    std::vector<std::shared_ptr<Node>> fleet;
    uint64_t nextNodeId = 1;

    /** Serializes localCycle/localSavf (one engine, one computation). */
    std::mutex localMutex;

    std::atomic<bool> shuttingDown{false};
    std::thread acceptor;
};

} // namespace davf::net

#endif // DAVF_NET_COORDINATOR_HH
