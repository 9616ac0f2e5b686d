#include "worker.hh"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "campaign/shard_link.hh"
#include "net/frame.hh"
#include "net/netfault.hh"

namespace davf::net {

namespace {

/**
 * The armed DAVF_TEST_NETFAULT, applied to the shard it names:
 * disconnect or stall before computing it, drop or garble its reply.
 */
class NetFaultHook final : public ShardHook
{
  public:
    NetFaultHook(FrameConn &the_conn, const std::string &the_node)
        : conn(the_conn), node(the_node)
    {}

    bool
    beforeShard(const ShardSpec &spec) override
    {
        fires = netFaultFires(node, spec.cycle);
        if (!fires)
            return true;
        if (armedNetFault().kind == NetFaultKind::Disconnect) {
            std::fprintf(stderr, "net worker %s: netfault disconnect\n",
                         node.c_str());
            return false;
        }
        if (armedNetFault().kind == NetFaultKind::Stall) {
            std::fprintf(stderr, "net worker %s: netfault stall\n",
                         node.c_str());
            stallForever();
        }
        return true;
    }

    bool
    beforeReply(const ShardSpec &, std::string &reply) override
    {
        if (fires && armedNetFault().kind == NetFaultKind::Drop) {
            std::fprintf(stderr, "net worker %s: netfault drop\n",
                         node.c_str());
            return false; // Computed, never sent; go silent.
        }
        if (fires && armedNetFault().kind == NetFaultKind::Garble)
            reply = "ok davf !garbled-by-netfault!";
        return true;
    }

  private:
    /** Keep heartbeating, never reply; ends when the coordinator
     *  gives up and closes the connection. */
    [[noreturn]] void
    stallForever()
    {
        for (;;) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            try {
                conn.send("hb");
            } catch (const DavfError &) {
                std::_Exit(1); // Quarantined by the coordinator; done.
            }
        }
    }

    FrameConn &conn;
    const std::string &node;
    bool fires = false;
};

} // namespace

int
runNetWorker(VulnerabilityEngine &engine,
             const StructureRegistry &registry,
             const NetWorkerOptions &options)
{
    // A vanished coordinator surfaces as EPIPE on write, not a
    // process-fatal SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    const std::string node = options.nodeName.empty()
        ? "node-" + std::to_string(::getpid())
        : options.nodeName;

    FrameConn conn(connectTcpRetry(options.host, options.port,
                                   options.connectTimeoutMs,
                                   options.connectRetries,
                                   options.backoffBaseMs));
    try {
        conn.send(makeHello(node, options.fingerprint));
        std::string payload;
        const FrameConn::ReadStatus hs = conn.read(payload, 30000.0);
        if (hs != FrameConn::ReadStatus::Frame) {
            std::fprintf(stderr,
                         "net worker %s: no handshake reply\n",
                         node.c_str());
            return 1;
        }
        Result<HandshakeReply> reply = parseHandshakeReply(payload);
        if (!reply)
            throw reply.error();
        if (!reply.value().welcome) {
            std::fprintf(stderr, "net worker %s: rejected: %s\n",
                         node.c_str(), reply.value().reason.c_str());
            return 2;
        }
        // The coordinator ran the timed golden pass: adopt its period,
        // or measure here when a bare welcome leaves it unknown,
        // heartbeating meanwhile so the coordinator, which may already
        // have sent a shard, does not retire the node as silent.
        if (engine.periodSource()
            == VulnerabilityEngine::PeriodSource::Unset) {
            if (reply.value().periodPs > 0.0)
                engine.adoptClockPeriod(reply.value().periodPs);
            else
                withHeartbeat(conn, [&] { engine.measureClockPeriod(); });
        }
        std::fprintf(stderr, "net worker %s: %s\n", node.c_str(),
                     goldenLine(engine).c_str());

        NetFaultHook hook(conn, node);
        switch (serveShards(conn, engine, registry, &hook)) {
        case ServeEnd::Quit:
            return 0;
        case ServeEnd::Eof:
            std::fprintf(stderr, "net worker %s: coordinator vanished\n",
                         node.c_str());
            return 1;
        case ServeEnd::Hook:
            conn.close();
            return 1;
        }
        return 1;
    } catch (const DavfError &error) {
        std::fprintf(stderr, "net worker %s: fatal: %s\n", node.c_str(),
                     error.what());
        return 1;
    }
}

} // namespace davf::net
