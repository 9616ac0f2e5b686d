#include "coordinator.hh"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/clock.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf::net {

namespace {

/** Grace window for draining a node's stream at shutdown. */
constexpr double kQuitGraceMs = 2000.0;

/** Handshake read budget per connecting node. */
constexpr double kHelloTimeoutMs = 5000.0;

/**
 * Coordinator metric handles (docs/OBSERVABILITY.md). The compute
 * counters live in the worker processes; these cover the fleet's view
 * of node lifecycle, dispatch churn, and recovery.
 */
struct NetMetrics
{
    LinkMetrics link{"net"};
    obs::Counter nodesConnected{"net.nodes_connected"};
    obs::Counter nodesRejected{"net.nodes_rejected"};
    obs::Counter nodesLost{"net.nodes_lost"};
    obs::Counter nodesQuarantined{"net.nodes_quarantined"};
    obs::Counter redispatches{"net.redispatches"};
    obs::Counter localFallbacks{"net.local_fallbacks"};
    obs::Counter storeHits{"net.store_hits"};
    obs::Counter storeWrites{"net.store_writes"};
    obs::Counter storeWriteFailures{"net.store_write_failures"};
};

NetMetrics &
netMetrics()
{
    static NetMetrics *const metrics = new NetMetrics();
    return *metrics;
}

/** Ship one shard to one node under the net link metrics. */
ShardReply
dispatchOnce(FrameConn &conn, const ShardSpec &spec,
             const CoordinatorOptions &options)
{
    const LinkMetrics &lm = netMetrics().link;
    const obs::Span span(lm.dispatchSpan.c_str(), &lm.dispatchNs);
    lm.dispatches.add(1);
    const double started = nowMs();
    ShardReply reply =
        exchangeShard(conn, spec, options.heartbeatTimeoutMs,
                      options.shardTimeoutMs, started, lm);
    lm.shardWallUs.observe(
        static_cast<uint64_t>((nowMs() - started) * 1000.0));
    return reply;
}

} // namespace

NodeOutcome
classifyNodeReply(ShardReply::Status status)
{
    using Status = ShardReply::Status;
    switch (status) {
    case Status::Ok: return NodeOutcome::Ok;
    case Status::WorkerError: return NodeOutcome::Error;
    case Status::BadReply: return NodeOutcome::BadOutput;
    case Status::Silent:
    case Status::Deadline: return NodeOutcome::Timeout;
    case Status::SendFailed:
    case Status::Eof:
    case Status::Torn: break;
    }
    return NodeOutcome::NodeLost;
}

/** One connected worker node. */
struct Coordinator::Node
{
    uint64_t id = 0;
    std::string name;
    FrameConn conn;
    unsigned failures = 0; ///< Retryable failures, toward quarantine.
    std::atomic<bool> dead{false};
};

/** One shard of a cell in flight. */
struct Coordinator::Job
{
    ShardSpec spec;
    unsigned attempts = 0;
    bool fromCache = false;
    InjectionCycleOutcome cycleOutcome;
    SavfResult savfOutcome;
};

/** Shared state of one cell's dispatch. */
struct Coordinator::CellCtx
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Job> jobs;
    std::deque<size_t> queue;      ///< Dispatchable job indices.
    std::deque<size_t> localQueue; ///< Jobs demoted to local compute.
    size_t outstanding = 0;        ///< Jobs not yet delivered.
    size_t activeDispatchers = 0;
    bool failed = false;
    std::string failReason;
    bool stopped = false;

    /** Serializes delivery (on_cycle_done journals). */
    std::mutex deliverMutex;
    std::function<void(Job &)> deliver;

    bool
    finished() const
    {
        return outstanding == 0 || failed || stopped;
    }
};

Coordinator::Coordinator(ListenSocket listener,
                         CoordinatorOptions the_options)
    : options(std::move(the_options)), listenFd(listener.fd),
      listenPort(listener.port)
{
    acceptor = std::thread([this] { acceptLoop(); });
}

Coordinator::~Coordinator()
{
    shutdown();
}

bool
Coordinator::stopRequested() const
{
    return options.stopFlag
        && options.stopFlag->load(std::memory_order_relaxed);
}

void
Coordinator::acceptLoop()
{
    while (!shuttingDown.load(std::memory_order_relaxed)) {
        struct pollfd pfd = {};
        pfd.fd = listenFd;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue;

        int fd = -1;
        try {
            fd = acceptTcp(listenFd);
        } catch (const DavfError &) {
            if (shuttingDown.load(std::memory_order_relaxed))
                return;
            continue;
        }

        // Handshake inline: hellos are tiny and the accept rate is a
        // handful of nodes, not a request stream.
        FrameConn conn(fd);
        try {
            std::string payload;
            const FrameConn::ReadStatus st =
                conn.read(payload, kHelloTimeoutMs);
            if (st != FrameConn::ReadStatus::Frame)
                continue; // Dropped or silent dialer; conn closes.
            Result<Hello> hello = parseHello(payload);
            if (!hello) {
                netMetrics().nodesRejected.add(1);
                conn.send(makeReject(hello.error().what()));
                continue;
            }
            if (!options.fingerprint.empty()
                && hello.value().fingerprint != options.fingerprint) {
                netMetrics().nodesRejected.add(1);
                conn.send(makeReject(
                    "workspace fingerprint mismatch: coordinator has "
                    + options.fingerprint + ", node sent "
                    + hello.value().fingerprint));
                continue;
            }
            conn.send(makeWelcome());

            auto node = std::make_shared<Node>();
            node->name = hello.value().node;
            node->conn = std::move(conn);
            {
                const std::lock_guard<std::mutex> lock(fleetMutex);
                node->id = nextNodeId++;
                fleet.push_back(node);
            }
            netMetrics().nodesConnected.add(1);
            fleetCv.notify_all();
        } catch (const DavfError &) {
            // A peer that garbles or tears its hello is not a node.
            netMetrics().nodesRejected.add(1);
        }
    }
}

size_t
Coordinator::waitForNodes(size_t count, double timeout_ms)
{
    std::unique_lock<std::mutex> lock(fleetMutex);
    fleetCv.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms),
        [&] { return fleet.size() >= count || stopRequested(); });
    return fleet.size();
}

size_t
Coordinator::nodeCount() const
{
    const std::lock_guard<std::mutex> lock(fleetMutex);
    return fleet.size();
}

std::vector<std::shared_ptr<Coordinator::Node>>
Coordinator::fleetSnapshot() const
{
    const std::lock_guard<std::mutex> lock(fleetMutex);
    return fleet;
}

void
Coordinator::finishJob(CellCtx &ctx, Job &job)
{
    {
        const std::lock_guard<std::mutex> lock(ctx.deliverMutex);
        ctx.deliver(job);
        if (options.cacheStore && !job.fromCache) {
            // The shared store is a cache tier: the shard's result is
            // already delivered to the journal above, so a store that
            // cannot accept the write (full disk, armed crash point)
            // costs a future hit, never the campaign.
            try {
                static const crashpoint::CrashPoint store_point(
                    "net.store_write");
                store_point.fire();
                options.cacheStore(job.spec, job.cycleOutcome,
                                   job.savfOutcome);
                netMetrics().storeWrites.add(1);
            } catch (const DavfError &error) {
                netMetrics().storeWriteFailures.add(1);
                davf_warn("shared-store write failed (campaign "
                          "continues): ",
                          error.what());
            }
        }
    }
    const std::lock_guard<std::mutex> lock(ctx.mutex);
    --ctx.outstanding;
    ctx.cv.notify_all();
}

void
Coordinator::computeLocally(CellCtx &ctx, Job &job)
{
    try {
        const std::lock_guard<std::mutex> lock(localMutex);
        if (job.spec.kind == ShardSpec::Kind::Cycle) {
            davf_assert(static_cast<bool>(options.localCycle),
                        "net coordinator has no local cycle fallback");
            job.cycleOutcome = options.localCycle(job.spec);
        } else {
            davf_assert(static_cast<bool>(options.localSavf),
                        "net coordinator has no local savf fallback");
            job.savfOutcome = options.localSavf(job.spec);
        }
    } catch (const DavfError &error) {
        // Local compute is the path of last resort; its failure is
        // deterministic for the cell, exactly as in thread mode.
        const std::lock_guard<std::mutex> lock(ctx.mutex);
        if (!ctx.failed) {
            ctx.failed = true;
            ctx.failReason = std::string("local fallback: ")
                + error.what();
        }
        ctx.cv.notify_all();
        return;
    }
    finishJob(ctx, job);
}

void
Coordinator::drainNode(const std::shared_ptr<Node> &node, CellCtx &ctx)
{
    auto retire = [&](const std::string &why, bool quarantine) {
        node->dead.store(true, std::memory_order_relaxed);
        node->conn.close();
        {
            const std::lock_guard<std::mutex> lock(fleetMutex);
            fleet.erase(std::remove(fleet.begin(), fleet.end(), node),
                        fleet.end());
        }
        if (quarantine)
            netMetrics().nodesQuarantined.add(1);
        else
            netMetrics().nodesLost.add(1);
        davf_warn("net: node '", node->name, "' ",
                  quarantine ? "quarantined" : "lost", " (", why, ")");
    };

    for (;;) {
        size_t index = 0;
        {
            std::unique_lock<std::mutex> lock(ctx.mutex);
            ctx.cv.wait(lock, [&] {
                return !ctx.queue.empty() || ctx.finished()
                    || node->dead.load(std::memory_order_relaxed);
            });
            if (ctx.finished()
                || node->dead.load(std::memory_order_relaxed))
                break;
            index = ctx.queue.front();
            ctx.queue.pop_front();
        }
        Job &job = ctx.jobs[index];
        ++job.attempts;

        const ShardReply reply =
            dispatchOnce(node->conn, job.spec, options);
        const NodeOutcome outcome = classifyNodeReply(reply.status);

        if (outcome == NodeOutcome::Ok) {
            node->failures = 0;
            job.cycleOutcome = reply.cycleOutcome;
            job.savfOutcome = reply.savfOutcome;
            finishJob(ctx, job);
            continue;
        }

        if (outcome == NodeOutcome::Error) {
            // Deterministic worker error: re-dispatching cannot fix
            // it, so the cell fails (same policy as the supervisor).
            const std::lock_guard<std::mutex> lock(ctx.mutex);
            if (!ctx.failed) {
                ctx.failed = true;
                ctx.failReason = "node '" + node->name
                    + "': " + reply.detail;
            }
            ctx.cv.notify_all();
            break;
        }

        // Retryable: lost node, timeout, or garbled reply.
        ++node->failures;
        const bool lost = outcome == NodeOutcome::NodeLost
            || outcome == NodeOutcome::Timeout;
        const bool quarantined =
            !lost && node->failures > options.maxNodeFailures;
        if (lost || quarantined)
            retire(reply.detail, quarantined);

        const bool fallback = job.attempts
            > options.maxRetries + 1; // First try + maxRetries more.
        {
            const std::lock_guard<std::mutex> lock(ctx.mutex);
            if (ctx.finished()) {
                // Stopped/failed while we were dispatching; the job's
                // outcome no longer matters.
                ctx.cv.notify_all();
                break;
            }
            if (fallback) {
                netMetrics().localFallbacks.add(1);
                ctx.localQueue.push_back(index);
            } else {
                netMetrics().redispatches.add(1);
                ctx.queue.push_back(index);
            }
            ctx.cv.notify_all();
        }
        davf_warn("net: shard (", job.spec.structure, ", cycle ",
                  job.spec.cycle, ") attempt ", job.attempts,
                  " failed on node '", node->name, "': ",
                  reply.detail,
                  fallback ? "; falling back to local compute"
                           : "; re-dispatching");

        if (node->dead.load(std::memory_order_relaxed))
            break;
        if (!fallback) {
            sleepRetryBackoff(options.backoffBaseMs, job.spec,
                              job.attempts, options.seed,
                              netMetrics().link);
        }
    }

    const std::lock_guard<std::mutex> lock(ctx.mutex);
    --ctx.activeDispatchers;
    ctx.cv.notify_all();
}

Coordinator::CellResult
Coordinator::runCell(std::vector<Job> jobs,
                     const std::function<void(Job &)> &deliver)
{
    CellCtx ctx;
    ctx.jobs = std::move(jobs);
    ctx.deliver = deliver;
    ctx.outstanding = ctx.jobs.size();

    // Resolve shards against the shared store tier first: a shard any
    // node (or any earlier run) already computed is a hit, not work.
    if (options.cacheLookup) {
        for (Job &job : ctx.jobs) {
            if (!options.cacheLookup(job.spec, job.cycleOutcome,
                                     job.savfOutcome))
                continue;
            job.fromCache = true;
            netMetrics().storeHits.add(1);
            finishJob(ctx, job);
        }
    }
    for (size_t i = 0; i < ctx.jobs.size(); ++i) {
        if (!ctx.jobs[i].fromCache)
            ctx.queue.push_back(i);
    }

    std::vector<std::thread> dispatchers;
    std::set<uint64_t> seen;

    std::unique_lock<std::mutex> lock(ctx.mutex);
    for (;;) {
        // Late joiners get a dispatcher mid-cell; lock order is
        // ctx.mutex -> fleetMutex throughout.
        for (const std::shared_ptr<Node> &node : fleetSnapshot()) {
            if (node->dead.load(std::memory_order_relaxed)
                || !seen.insert(node->id).second)
                continue;
            ++ctx.activeDispatchers;
            dispatchers.emplace_back(
                [this, node, &ctx] { drainNode(node, ctx); });
        }

        if (ctx.finished())
            break;
        if (stopRequested()) {
            ctx.stopped = true;
            ctx.cv.notify_all();
            break;
        }

        if (!ctx.localQueue.empty()) {
            const size_t index = ctx.localQueue.front();
            ctx.localQueue.pop_front();
            lock.unlock();
            computeLocally(ctx, ctx.jobs[index]);
            lock.lock();
            continue;
        }
        if (ctx.activeDispatchers == 0 && !ctx.queue.empty()
            && nodeCount() == 0) {
            // The fleet drained to zero: degrade gracefully to local
            // in-process execution for everything still queued.
            davf_warn("net: no nodes left; computing ",
                      ctx.queue.size(), " remaining shard(s) locally");
            while (!ctx.queue.empty()) {
                netMetrics().localFallbacks.add(1);
                ctx.localQueue.push_back(ctx.queue.front());
                ctx.queue.pop_front();
            }
            continue;
        }

        ctx.cv.wait_for(lock, std::chrono::milliseconds(200));
    }
    lock.unlock();

    ctx.cv.notify_all();
    for (std::thread &thread : dispatchers)
        thread.join();

    CellResult result;
    result.failed = ctx.failed;
    result.failReason = ctx.failReason;
    result.stopped = ctx.stopped;
    return result;
}

Coordinator::CellResult
Coordinator::runDavfCell(
    const std::string &structure, double delay_fraction,
    const std::vector<uint64_t> &cycles, const SamplingConfig &sampling,
    const std::function<void(const InjectionCycleOutcome &)>
        &on_cycle_done)
{
    std::vector<Job> jobs;
    jobs.reserve(cycles.size());
    for (uint64_t cycle : cycles) {
        Job job;
        job.spec.kind = ShardSpec::Kind::Cycle;
        job.spec.structure = structure;
        job.spec.delayFraction = delay_fraction;
        job.spec.cycle = cycle;
        job.spec.sampling = sampling;
        jobs.push_back(std::move(job));
    }
    return runCell(std::move(jobs),
                   [&](Job &job) { on_cycle_done(job.cycleOutcome); });
}

Coordinator::CellResult
Coordinator::runSavfCell(const std::string &structure,
                         const SamplingConfig &sampling, SavfResult &out)
{
    Job job;
    job.spec.kind = ShardSpec::Kind::Savf;
    job.spec.structure = structure;
    job.spec.sampling = sampling;
    return runCell({std::move(job)},
                   [&](Job &done) { out = done.savfOutcome; });
}

void
Coordinator::shutdown()
{
    if (shuttingDown.exchange(true))
        return;
    if (acceptor.joinable())
        acceptor.join();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }

    std::vector<std::shared_ptr<Node>> nodes;
    {
        const std::lock_guard<std::mutex> lock(fleetMutex);
        nodes.swap(fleet);
    }
    std::vector<FrameLink *> links;
    for (const std::shared_ptr<Node> &node : nodes) {
        if (node->conn.open())
            links.push_back(&node->conn);
    }
    quitAndDrain(links, kQuitGraceMs);
    for (const std::shared_ptr<Node> &node : nodes)
        node->conn.close();
}

} // namespace davf::net
