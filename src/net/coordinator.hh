/**
 * @file
 * The distributed campaign coordinator: the network source of the
 * shard fleet (campaign/fleet.hh), which speaks the shard link
 * (campaign/shard_link.hh) to remote TCP worker nodes instead of local
 * child processes.
 *
 * Topology: the coordinator owns a listening socket; davf_worker
 * processes connect, handshake (versioned hello carrying the node
 * name and workspace fingerprint — a mismatch is rejected; the welcome
 * carries the clock period the node adopts), and join
 * the fleet as one slot each, waking a running cell at once. The fleet
 * drains each cell's shard queue with one dispatch thread per node,
 * work-stealing style, so fast nodes naturally take more shards and a
 * slow node never gates the queue.
 *
 * What is net-specific (the rest is the fleet's one policy):
 *  - a lost node — any retryable ending: EOF, torn or garbled reply,
 *    heartbeat silence, shard deadline — is disconnected and its slot
 *    ends; a crashed node does not come back;
 *  - a shard that has used up its retries, and any shard left when the
 *    fleet drains to zero, runs **locally** in-process, so
 *    infrastructure failures never fail a cell and a campaign with no
 *    (surviving) workers degrades to exactly a thread-mode run.
 *
 * Replies carry the exact journal token grammar, and aggregation runs
 * through the checkpoint-resume path, so results are byte-identical
 * to thread/process mode at any node count (docs/DISTRIBUTED.md).
 */

#ifndef DAVF_NET_COORDINATOR_HH
#define DAVF_NET_COORDINATOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "campaign/fleet.hh"
#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "net/frame.hh"

namespace davf::net {

/** Fleet policy for one Coordinator; retries and timeouts come from
 *  the base. */
struct CoordinatorOptions : DispatchOptions
{
    /** Expected workspace fingerprint; a hello naming another one is
     *  rejected (empty accepts anything — tests only). */
    std::string fingerprint;

    /** The coordinator's observed-max clock period, sent bit-exactly
     *  in every welcome so nodes skip their timed golden pass; 0 sends
     *  a bare welcome (STA clock: nodes need no timed pass). */
    double clockPeriod = 0.0;

    /**
     * @name Local execution
     * localCycle/localSavf compute one shard in-process (the graceful
     * degradation path; engine calls are serialized internally by the
     * coordinator).
     */
    /// @{
    std::function<InjectionCycleOutcome(const ShardSpec &)> localCycle;
    std::function<SavfResult(const ShardSpec &)> localSavf;
    /// @}
};

/** The node source of the shard fleet (see file comment). */
class Coordinator : public ShardDispatcher
{
  public:
    /** Takes ownership of @p listener and starts accepting nodes. */
    Coordinator(ListenSocket listener, CoordinatorOptions options);
    ~Coordinator() override;

    /** The bound port (for --listen HOST:0). */
    uint16_t port() const { return listenPort; }

    /**
     * Block until @p count nodes are connected or @p timeout_ms
     * passes; returns the connected-node count either way.
     */
    size_t waitForNodes(size_t count, double timeout_ms);

    /** Currently connected nodes. */
    size_t nodeCount() const;

  private:
    struct Node;

    void acceptLoop();
    ShardAttempt dispatch(Slot &slot, const ShardSpec &spec,
                          double started_ms) override;
    Settlement retriesExhausted(Slot &slot, ShardJob &job,
                                const ShardAttempt &last,
                                size_t quarantined) override;
    /** Compute @p job in-process (serialized on localMutex). */
    Settlement orphaned(ShardJob &job) override;
    void stopAdmitting() override;

    const std::string fingerprint;
    const double clockPeriod;
    const std::function<InjectionCycleOutcome(const ShardSpec &)> localCycle;
    const std::function<SavfResult(const ShardSpec &)> localSavf;
    int listenFd = -1;
    uint16_t listenPort = 0;

    /** Serializes localCycle/localSavf (one engine, one computation). */
    std::mutex localMutex;

    std::atomic<bool> shuttingDown{false};
    std::thread acceptor;
};

} // namespace davf::net

#endif // DAVF_NET_COORDINATOR_HH
