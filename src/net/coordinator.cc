#include "coordinator.hh"

#include <poll.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace davf::net {

namespace {

/** Handshake read budget per connecting node. */
constexpr double kHelloTimeoutMs = 5000.0;

/**
 * Coordinator metric handles (docs/OBSERVABILITY.md). The compute
 * counters live in the worker processes; these cover the fleet's view
 * of node lifecycle, dispatch churn, and recovery.
 */
struct NetMetrics
{
    FleetMetrics fleet{"net", "net.redispatches"};
    obs::Counter nodesConnected{"net.nodes_connected"};
    obs::Counter nodesRejected{"net.nodes_rejected"};
    obs::Counter nodesLost{"net.nodes_lost"};
    obs::Counter localFallbacks{"net.local_fallbacks"};
};

NetMetrics &
netMetrics()
{
    static NetMetrics *const metrics = new NetMetrics();
    return *metrics;
}

} // namespace

/** One connected worker node. */
struct Coordinator::Node : Slot
{
    FrameConn conn;

    FrameLink *
    link() override
    {
        return conn.open() ? &conn : nullptr;
    }

    void close() override { conn.close(); }
};

Coordinator::Coordinator(ListenSocket listener,
                         CoordinatorOptions the_options)
    : ShardDispatcher(the_options, netMetrics().fleet),
      fingerprint(std::move(the_options.fingerprint)),
      clockPeriod(the_options.clockPeriod),
      localCycle(std::move(the_options.localCycle)),
      localSavf(std::move(the_options.localSavf)), listenFd(listener.fd),
      listenPort(listener.port)
{
    acceptor = std::thread([this] { acceptLoop(); });
}

Coordinator::~Coordinator()
{
    shutdown();
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
            if (!fingerprint.empty()
                && hello.value().fingerprint != fingerprint) {
                netMetrics().nodesRejected.add(1);
                conn.send(makeReject(
                    "workspace fingerprint mismatch: coordinator has "
                    + fingerprint + ", node sent "
                    + hello.value().fingerprint));
                continue;
            }
            conn.send(makeWelcome(clockPeriod));

            auto node = std::make_shared<Node>();
            node->name = hello.value().node;
            node->conn = std::move(conn);
            netMetrics().nodesConnected.add(1);
            addSlot(std::move(node));
        } catch (const DavfError &) {
            // A peer that garbles or tears its hello is not a node.
            netMetrics().nodesRejected.add(1);
        }
    }
}

size_t
Coordinator::waitForNodes(size_t count, double timeout_ms)
{
    return waitForSlots(count, timeout_ms);
}

size_t
Coordinator::nodeCount() const
{
    return slotCount();
}

ShardAttempt
Coordinator::dispatch(Slot &slot, const ShardSpec &spec, double started_ms)
{
    Node &node = static_cast<Node &>(slot);
    ShardAttempt attempt = exchange(node.conn, spec, started_ms);
    if (attempt.retryable()) {
        // A lost node does not come back: its slot ends.
        node.conn.close();
        endSlot(node);
        netMetrics().nodesLost.add(1);
        davf_warn("net: node '", node.name, "' lost (", attempt.detail,
                  ")");
    }
    return attempt;
}

Settlement
Coordinator::retriesExhausted(Slot &, ShardJob &job, const ShardAttempt &,
                              size_t)
{
    return orphaned(job);
}

Settlement
Coordinator::orphaned(ShardJob &job)
{
    // Local compute: the path of last resort, serialized on the one
    // local engine. Its failure is deterministic for the cell, exactly
    // as in thread mode.
    netMetrics().localFallbacks.add(1);
    try {
        const std::lock_guard<std::mutex> lock(localMutex);
        if (job.spec.kind == ShardSpec::Kind::Cycle) {
            davf_assert(static_cast<bool>(localCycle),
                        "net coordinator has no local cycle fallback");
            job.cycleOutcome = localCycle(job.spec);
        } else {
            davf_assert(static_cast<bool>(localSavf),
                        "net coordinator has no local savf fallback");
            job.savfOutcome = localSavf(job.spec);
        }
    } catch (const DavfError &error) {
        return {Settlement::Kind::Fail,
                std::string("local fallback: ") + error.what()};
    }
    return {Settlement::Kind::Done, {}};
}

void
Coordinator::stopAdmitting()
{
    if (shuttingDown.exchange(true))
        return;
    if (acceptor.joinable())
        acceptor.join();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
}

} // namespace davf::net
