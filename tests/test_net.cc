/**
 * @file
 * Tests for the distributed campaign fabric (src/net/):
 *
 *  - the TCP frame transport: round-trips, hostile length prefixes
 *    rejected at kMaxFrameBytes before allocating, truncated payloads
 *    and mid-frame disconnects surfacing as torn-stream errors, partial
 *    frames surviving read timeouts;
 *  - the versioned hello handshake: wrong magic/version/shape rejected,
 *    a truncation corpus over every prefix of a valid hello, workspace
 *    fingerprint mismatches refused at the coordinator;
 *  - the DAVF_TEST_NETFAULT grammar;
 *  - coordinator + worker end to end: bit-identity with thread mode at
 *    any node count, recovery from garbled replies, dropped replies,
 *    stalled nodes, and mid-campaign disconnects, graceful degradation
 *    to local compute with an empty fleet, and the shutdown drain that
 *    keeps a quit frame from racing an in-flight result.
 *
 * The binary re-executes itself as a worker node when invoked with
 * --net-worker=PORT:NODE:FINGERPRINT (rebuilding the same fixture
 * engine), so it has its own main() instead of linking gtest_main.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/campaign/campaign.hh"
#include "src/campaign/supervisor.hh"
#include "src/core/shard.hh"
#include "src/core/vulnerability.hh"
#include "src/net/coordinator.hh"
#include "src/net/frame.hh"
#include "src/net/netfault.hh"
#include "src/net/worker.hh"
#include "src/obs/metrics.hh"
#include "src/service/result_store.hh"
#include "src/service/scheduler.hh"
#include "src/util/error.hh"
#include "src/util/subprocess.hh"
#include "tests/helpers.hh"

namespace davf {
namespace {

/** The fixture "workspace fingerprint" both ends present. */
constexpr const char *kTestFingerprint = "test-net-fixture";

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "davf_net_test_"
        + std::to_string(::getpid()) + "_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(file)) << path;
    std::ostringstream os;
    os << file.rdbuf();
    return os.str();
}

/** Sets an environment variable for the enclosing scope. */
struct EnvGuard
{
    const char *name;
    EnvGuard(const char *the_name, const std::string &value)
        : name(the_name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name); }
};

/** The deterministic circuit both the tests and worker children build
 *  (identical to test_campaign's fixture, including the seed). */
struct NetFixture
{
    test::RandomCircuit circuit;
    std::unique_ptr<VulnerabilityEngine> engine;
    std::unique_ptr<StructureRegistry> registry;

    explicit NetFixture(unsigned lanes = 64)
        : circuit(test::makeRandomCircuit(11, 8, 40, 12))
    {
        engine = test::makeEngine(circuit, lanes);
        registry = std::make_unique<StructureRegistry>(*circuit.netlist);
        registry->add("Rnd", "rnd/");
    }

    CampaignOptions options() const
    {
        CampaignOptions opts;
        opts.benchmark = "rndtrace";
        opts.structures = {"Rnd"};
        opts.delays = {0.3, 0.6, 0.9};
        opts.runSavf = true;
        opts.sampling.maxInjectionCycles = 4;
        opts.sampling.maxWires = 30;
        opts.sampling.maxFlops = 8;
        opts.sampling.seed = 5;
        return opts;
    }
};

// ------------------------------------------------------------- transport

/** A listener plus one raw (unframed) sender connection, so tests can
 *  push hostile bytes at a FrameConn reader. */
struct RawSender
{
    net::ListenSocket listener;
    int sender = -1;

    RawSender()
    {
        listener = net::listenTcp("127.0.0.1", 0);
        sender = net::connectTcp("127.0.0.1", listener.port, 2000.0);
    }

    ~RawSender()
    {
        closeSender();
        ::close(listener.fd);
    }

    net::FrameConn
    accept()
    {
        return net::FrameConn(net::acceptTcp(listener.fd));
    }

    void
    raw(std::string_view bytes)
    {
        ASSERT_EQ(::write(sender, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }

    void
    closeSender()
    {
        if (sender >= 0)
            ::close(sender);
        sender = -1;
    }
};

TEST(TcpFrame, RoundTripsBinaryPayloads)
{
    net::ListenSocket listener = net::listenTcp("127.0.0.1", 0);
    net::FrameConn client(
        net::connectTcp("127.0.0.1", listener.port, 2000.0));
    net::FrameConn server(net::acceptTcp(listener.fd));
    ::close(listener.fd);

    const std::string binary{"\x00\xff\x7f\n frame", 8};
    client.send("hello");
    client.send("");
    client.send(binary);

    std::string payload;
    ASSERT_EQ(server.read(payload, 2000.0),
              net::FrameConn::ReadStatus::Frame);
    EXPECT_EQ(payload, "hello");
    ASSERT_EQ(server.read(payload, 2000.0),
              net::FrameConn::ReadStatus::Frame);
    EXPECT_EQ(payload, "");
    ASSERT_EQ(server.read(payload, 2000.0),
              net::FrameConn::ReadStatus::Frame);
    EXPECT_EQ(payload, binary);

    // Replies flow the other way on the same connection.
    server.send("pong");
    ASSERT_EQ(client.read(payload, 2000.0),
              net::FrameConn::ReadStatus::Frame);
    EXPECT_EQ(payload, "pong");

    // A clean close is EOF, not an error.
    client.close();
    EXPECT_EQ(server.read(payload, 2000.0),
              net::FrameConn::ReadStatus::Eof);
}

TEST(TcpFrame, OversizedPrefixIsRejectedBeforeAllocating)
{
    RawSender wire;
    net::FrameConn victim = wire.accept();
    // A 4 GiB length prefix: honouring it would allocate unbounded
    // attacker-controlled memory, so the reader must throw BadInput on
    // the prefix alone, before any payload arrives.
    wire.raw(std::string(4, '\xff'));

    std::string payload;
    try {
        victim.read(payload, 2000.0);
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::BadInput);
    }
}

TEST(TcpFrame, TruncatedPayloadIsTornStream)
{
    RawSender wire;
    net::FrameConn victim = wire.accept();
    // Announce 64 bytes, deliver 10, vanish.
    wire.raw(std::string("\x40\x00\x00\x00", 4));
    wire.raw("only10byte");
    wire.closeSender();

    std::string payload;
    try {
        victim.read(payload, 2000.0);
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::BadInput);
    }
}

TEST(TcpFrame, MidPrefixDisconnectIsTornStream)
{
    RawSender wire;
    net::FrameConn victim = wire.accept();
    wire.raw(std::string("\x10\x00", 2)); // Half a length prefix.
    wire.closeSender();

    std::string payload;
    try {
        victim.read(payload, 2000.0);
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::BadInput);
    }
}

TEST(TcpFrame, PartialFrameSurvivesReadTimeout)
{
    RawSender wire;
    net::FrameConn victim = wire.accept();
    wire.raw(std::string("\x05\x00\x00\x00", 4));
    wire.raw("he");

    std::string payload;
    EXPECT_EQ(victim.read(payload, 50.0),
              net::FrameConn::ReadStatus::Timeout);
    wire.raw("llo");
    ASSERT_EQ(victim.read(payload, 2000.0),
              net::FrameConn::ReadStatus::Frame);
    EXPECT_EQ(payload, "hello");
}

TEST(TcpFrame, ParseHostPort)
{
    std::string host;
    uint16_t port = 0;
    net::parseHostPort("127.0.0.1:8080", host, port);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8080);
    net::parseHostPort("localhost:0", host, port);
    EXPECT_EQ(host, "localhost");
    EXPECT_EQ(port, 0);

    for (const char *bad :
         {"", ":", "host", "host:", ":123", "host:x", "host:12x",
          "host:65536", "host:123456"}) {
        EXPECT_THROW(net::parseHostPort(bad, host, port), DavfError)
            << '"' << bad << '"';
    }
}

TEST(TcpFrame, ConnectToDeadPortThrowsIo)
{
    // Bind an ephemeral port, close it again, and dial the corpse.
    net::ListenSocket doomed = net::listenTcp("127.0.0.1", 0);
    const uint16_t port = doomed.port;
    ::close(doomed.fd);
    try {
        net::connectTcp("127.0.0.1", port, 1000.0);
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::Io);
    }
}

// ------------------------------------------------------------- handshake

TEST(Handshake, HelloRoundTrips)
{
    const std::string payload = net::makeHello("node-7", "fp-abc");
    const Result<net::Hello> hello = net::parseHello(payload);
    ASSERT_TRUE(hello.ok()) << hello.error().what();
    EXPECT_EQ(hello.value().node, "node-7");
    EXPECT_EQ(hello.value().fingerprint, "fp-abc");
}

TEST(Handshake, RejectsGarbageAndTruncations)
{
    for (const char *bad :
         {"", "hello", "davf-net", "davf-net v1", "davf-net v1 hello",
          "davf-net v1 hello node", "davf-net v2 hello node fp",
          "davf-nit v1 hello node fp", "davf-net v1 hEllo node fp",
          "GET / HTTP/1.1"}) {
        EXPECT_FALSE(net::parseHello(bad).ok()) << '"' << bad << '"';
    }

    // Every truncation that cuts into or before the fingerprint's
    // first character must be rejected, never crash or mis-parse. (A
    // merely *shortened* fingerprint still parses — the fingerprint
    // gate refuses it, not the grammar.)
    const std::string valid = net::makeHello("n", "fp");
    const size_t fp_start = valid.rfind(' ') + 1;
    for (size_t len = 0; len <= fp_start; ++len)
        EXPECT_FALSE(net::parseHello(valid.substr(0, len)).ok()) << len;
    EXPECT_TRUE(net::parseHello(valid).ok());
}

TEST(Handshake, ReplyClassification)
{
    std::string reason;
    Result<bool> ok = net::parseHandshakeReply(net::makeWelcome(), reason);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok.value());

    ok = net::parseHandshakeReply(net::makeReject("fingerprint clash"),
                                  reason);
    ASSERT_TRUE(ok.ok());
    EXPECT_FALSE(ok.value());
    EXPECT_EQ(reason, "fingerprint clash");

    for (const char *bad :
         {"", "welcome", "davf-net v2 welcome", "davf-net v1 wlcome"}) {
        EXPECT_FALSE(net::parseHandshakeReply(bad, reason).ok())
            << '"' << bad << '"';
    }
}

// -------------------------------------------------------------- netfault

TEST(NetFault, ParsesKindsAndTargets)
{
    net::NetFault fault = net::parseNetFault("garble@w1");
    EXPECT_EQ(fault.kind, net::NetFaultKind::Garble);
    EXPECT_TRUE(fault.matches("w1", 123));
    EXPECT_FALSE(fault.matches("w2", 123));

    fault = net::parseNetFault("drop@*");
    EXPECT_EQ(fault.kind, net::NetFaultKind::Drop);
    EXPECT_TRUE(fault.matches("anything", 0));

    fault = net::parseNetFault("stall@node-3:42");
    EXPECT_EQ(fault.kind, net::NetFaultKind::Stall);
    EXPECT_TRUE(fault.matches("node-3", 42));
    EXPECT_FALSE(fault.matches("node-3", 43));

    fault = net::parseNetFault("disconnect@*:7");
    EXPECT_EQ(fault.kind, net::NetFaultKind::Disconnect);
    EXPECT_TRUE(fault.matches("any", 7));
    EXPECT_FALSE(fault.matches("any", 8));

    for (const char *bad :
         {"", "garble", "garble@", "melt@w1", "stall@w1:x", "@w1"}) {
        EXPECT_EQ(net::parseNetFault(bad).kind, net::NetFaultKind::None)
            << '"' << bad << '"';
    }
    EXPECT_EQ(net::parseNetFault(nullptr).kind, net::NetFaultKind::None);
}

// ------------------------------------------------------------ end to end

/** A coordinator over the fixture engine plus spawned worker children. */
struct NetHarness
{
    NetFixture &fixture;
    std::unique_ptr<net::Coordinator> coordinator;
    std::vector<std::unique_ptr<Subprocess>> workers;
    uint16_t port = 0;

    explicit NetHarness(NetFixture &the_fixture,
                        net::CoordinatorOptions options = {})
        : fixture(the_fixture)
    {
        net::ListenSocket listener = net::listenTcp("127.0.0.1", 0);
        port = listener.port;
        options.fingerprint = kTestFingerprint;
        options.backoffBaseMs = 1.0; // Tests retry fast.
        options.localCycle = [this](const ShardSpec &spec) {
            const Structure *structure =
                fixture.registry->find(spec.structure);
            EXPECT_NE(structure, nullptr);
            return fixture.engine->delayAvfCycle(
                *structure, spec.delayFraction, spec.cycle,
                spec.sampling, spec.wireBegin, spec.wireEnd,
                spec.quarantined);
        };
        options.localSavf = [this](const ShardSpec &spec) {
            const Structure *structure =
                fixture.registry->find(spec.structure);
            EXPECT_NE(structure, nullptr);
            return fixture.engine->savf(*structure, spec.sampling);
        };
        coordinator = std::make_unique<net::Coordinator>(
            listener, std::move(options));
    }

    ~NetHarness()
    {
        coordinator->shutdown();
        for (const std::unique_ptr<Subprocess> &worker : workers) {
            if (worker->running())
                worker->terminate(2000.0);
        }
    }

    /** Spawn one worker child named @p node; it connects with retries. */
    void
    spawnWorker(const std::string &node,
                const std::string &fingerprint = kTestFingerprint)
    {
        auto proc = std::make_unique<Subprocess>();
        proc->spawn({Subprocess::selfExePath(),
                     "--net-worker=" + std::to_string(port) + ":" + node
                         + ":" + fingerprint},
                    {});
        workers.push_back(std::move(proc));
    }

    CampaignOptions
    netOptions() const
    {
        CampaignOptions opts = fixture.options();
        opts.isolate = IsolationMode::Net;
        opts.dispatcher = coordinator.get();
        return opts;
    }
};

/** Thread-mode reference journal + CSV for the fixture campaign,
 *  computed once and shared by every bit-identity test below. */
struct Reference
{
    std::string journal;
    std::string csv;
};

const Reference &
threadModeReference()
{
    static const Reference ref = [] {
        const std::string ckpt = tempPath("thread_ref.ckpt");
        const std::string csv = tempPath("thread_ref.csv");
        NetFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.checkpointPath = ckpt;
        opts.csvPath = csv;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
        Reference result{slurp(ckpt), slurp(csv)};
        std::remove(ckpt.c_str());
        std::remove(csv.c_str());
        return result;
    }();
    return ref;
}

/** Run the fixture campaign through @p harness and require the journal
 *  and CSV to be byte-identical to the thread-mode reference. */
void
expectNetRunMatchesReference(NetHarness &harness, const std::string &tag)
{
    const Reference &ref = threadModeReference();
    const std::string ckpt = tempPath(tag + ".ckpt");
    const std::string csv = tempPath(tag + ".csv");
    CampaignOptions opts = harness.netOptions();
    opts.checkpointPath = ckpt;
    opts.csvPath = csv;
    Campaign campaign(*harness.fixture.engine, *harness.fixture.registry,
                      opts);
    const CampaignSummary summary = campaign.run();
    EXPECT_FALSE(summary.interrupted) << tag;
    EXPECT_EQ(summary.cellsFailed, 0u) << tag;
    EXPECT_EQ(slurp(ckpt), ref.journal) << tag;
    EXPECT_EQ(slurp(csv), ref.csv) << tag;
    std::remove(ckpt.c_str());
    std::remove(csv.c_str());
}

TEST(NetCampaign, BitIdenticalToThreadModeAtAnyNodeCount)
{
    for (unsigned nodes : {1u, 3u}) {
        NetFixture fixture;
        NetHarness harness(fixture);
        for (unsigned i = 0; i < nodes; ++i)
            harness.spawnWorker("w" + std::to_string(i));
        ASSERT_EQ(harness.coordinator->waitForNodes(nodes, 30000.0),
                  nodes);
        expectNetRunMatchesReference(harness,
                                     "ident" + std::to_string(nodes));

        // A clean quit ends every worker with exit 0 — the shutdown
        // drain consumes any frame racing the quit instead of
        // reporting the node as failed or killing it mid-write.
        harness.coordinator->shutdown();
        for (const std::unique_ptr<Subprocess> &worker :
             harness.workers) {
            const ExitStatus status = worker->wait();
            EXPECT_TRUE(status.exited) << status.describe();
            EXPECT_EQ(status.code, 0) << status.describe();
        }
    }
}

TEST(NetCampaign, NarrowLaneCoordinatorMatchesReference)
{
    // The coordinator's local engine batches one continuation and one
    // cone at a time while the remote workers keep the default width:
    // the lane width is an engine-local speed knob, so the mixed fleet
    // still reproduces the thread-mode reference byte for byte.
    NetFixture fixture(2);
    NetHarness harness(fixture);
    harness.spawnWorker("w0");
    ASSERT_EQ(harness.coordinator->waitForNodes(1, 30000.0), 1u);

    const Reference &ref = threadModeReference();
    const std::string ckpt = tempPath("tsim_net.ckpt");
    const std::string csv = tempPath("tsim_net.csv");
    CampaignOptions opts = harness.netOptions();
    opts.checkpointPath = ckpt;
    opts.csvPath = csv;
    Campaign campaign(*harness.fixture.engine, *harness.fixture.registry,
                      opts);
    const CampaignSummary summary = campaign.run();
    EXPECT_FALSE(summary.interrupted);
    EXPECT_EQ(summary.cellsFailed, 0u);
    EXPECT_EQ(slurp(ckpt), ref.journal);
    EXPECT_EQ(slurp(csv), ref.csv);
    std::remove(ckpt.c_str());
    std::remove(csv.c_str());
}

// The fault-injection tests below (but the first) run the faulted node
// as the *only* node, so the fault deterministically fires on its first
// shard (with a second node present, work stealing may hand the
// faulted node no work at all on a fast machine). Multi-node
// redispatch is covered by GarbledReplyIsRedispatched,
// BitIdenticalToThreadModeAtAnyNodeCount and the CI net_smoke.

TEST(NetCampaign, GarbledReplyIsRedispatched)
{
    const EnvGuard fault("DAVF_TEST_NETFAULT", "garble@w0");
    NetFixture fixture;
    NetHarness harness(fixture);
    // w0 joins first, so it is the first slot and every cell starts
    // its dispatch thread first: across the campaign's cells it is
    // sure to take a shard, and so to garble one.
    harness.spawnWorker("w0");
    ASSERT_EQ(harness.coordinator->waitForNodes(1, 30000.0), 1u);
    harness.spawnWorker("w1");
    ASSERT_EQ(harness.coordinator->waitForNodes(2, 30000.0), 2u);
    // A garbled reply retires its node like any other retryable
    // failure: w0 is disconnected and its shard is re-dispatched to
    // w1.
    expectNetRunMatchesReference(harness, "garble");
    EXPECT_EQ(harness.coordinator->nodeCount(), 1u);
}

TEST(NetCampaign, DisconnectingNodeIsSurvived)
{
    const EnvGuard fault("DAVF_TEST_NETFAULT", "disconnect@w0");
    NetFixture fixture;
    NetHarness harness(fixture);
    harness.spawnWorker("w0");
    ASSERT_EQ(harness.coordinator->waitForNodes(1, 30000.0), 1u);
    // The only node dies mid-campaign: its shard and everything after
    // it degrade to local compute, still bit-identical.
    expectNetRunMatchesReference(harness, "disconnect");

    // The faulted node died mid-campaign (exit 1, lost coordinator);
    // its shard was re-dispatched, not lost.
    const ExitStatus status = harness.workers[0]->wait();
    EXPECT_TRUE(status.exited) << status.describe();
    EXPECT_EQ(status.code, 1) << status.describe();
}

TEST(NetCampaign, DroppedReplyIsCaughtByHeartbeatSilence)
{
    const EnvGuard fault("DAVF_TEST_NETFAULT", "drop@w0");
    NetFixture fixture;
    net::CoordinatorOptions options;
    // The dropped reply leaves the node connected but silent; only the
    // heartbeat window notices (kept short so the test stays fast).
    options.heartbeatTimeoutMs = 1200.0;
    NetHarness harness(fixture, options);
    harness.spawnWorker("w0");
    ASSERT_EQ(harness.coordinator->waitForNodes(1, 30000.0), 1u);
    expectNetRunMatchesReference(harness, "drop");
}

TEST(NetCampaign, StalledNodeIsCaughtByShardDeadline)
{
    const EnvGuard fault("DAVF_TEST_NETFAULT", "stall@w0");
    NetFixture fixture;
    net::CoordinatorOptions options;
    // A stalled node keeps heartbeating, so only the per-shard budget
    // can catch it.
    options.shardTimeoutMs = 1200.0;
    NetHarness harness(fixture, options);
    harness.spawnWorker("w0");
    ASSERT_EQ(harness.coordinator->waitForNodes(1, 30000.0), 1u);
    expectNetRunMatchesReference(harness, "stall");
}

TEST(NetCampaign, EmptyFleetDegradesToLocalCompute)
{
    NetFixture fixture;
    NetHarness harness(fixture);
    // No workers at all: every shard must run on the local fallback
    // path and the results must still match thread mode exactly.
    expectNetRunMatchesReference(harness, "local");
}

TEST(NetCampaign, FingerprintMismatchIsRejected)
{
    NetFixture fixture;
    NetHarness harness(fixture);
    harness.spawnWorker("impostor", "some-other-workspace");
    // The worker exits 2 (rejected) without ever joining the fleet.
    const ExitStatus status = harness.workers[0]->wait();
    EXPECT_TRUE(status.exited) << status.describe();
    EXPECT_EQ(status.code, 2) << status.describe();
    EXPECT_EQ(harness.coordinator->nodeCount(), 0u);
}

TEST(NetCampaign, WrongVersionHelloIsRejected)
{
    NetFixture fixture;
    NetHarness harness(fixture);

    net::FrameConn conn(
        net::connectTcp("127.0.0.1", harness.port, 2000.0));
    conn.send("davf-net v999 hello n " + std::string(kTestFingerprint));
    std::string payload;
    ASSERT_EQ(conn.read(payload, 5000.0),
              net::FrameConn::ReadStatus::Frame);
    std::string reason;
    const Result<bool> reply = net::parseHandshakeReply(payload, reason);
    ASSERT_TRUE(reply.ok()) << payload;
    EXPECT_FALSE(reply.value());
    EXPECT_EQ(harness.coordinator->nodeCount(), 0u);
}

TEST(NetCampaign, ShutdownDrainsReplyRacingQuit)
{
    NetFixture fixture;
    NetHarness harness(fixture);

    // A hand-rolled node that answers the quit with one last frame
    // before closing — the race from the issue: its final bytes must
    // be consumed by the shutdown drain, not misread as a node failure
    // or abandoned mid-write.
    std::thread fake([port = harness.port] {
        net::FrameConn conn(net::connectTcp("127.0.0.1", port, 5000.0));
        conn.send(net::makeHello("fake", kTestFingerprint));
        std::string payload;
        ASSERT_EQ(conn.read(payload, 5000.0),
                  net::FrameConn::ReadStatus::Frame); // welcome
        for (;;) {
            ASSERT_EQ(conn.read(payload, 10000.0),
                      net::FrameConn::ReadStatus::Frame);
            if (payload == "quit")
                break;
        }
        conn.send("ok davf result-racing-the-quit");
        conn.close();
    });

    ASSERT_EQ(harness.coordinator->waitForNodes(1, 10000.0), 1u);
    harness.coordinator->shutdown(); // Must drain and return cleanly.
    fake.join();
}

TEST(NetCampaign, CacheTierServesAWarmRunInEveryMode)
{
    // The result store is the campaign's cache tier, whatever runs the
    // cells: a cold run writes every shard once, and a warm run over the
    // same directory takes them all from it, computes nothing, and —
    // in net mode, with no node connected — neither dispatches nor
    // falls back to local compute.
    obs::MetricsRegistry::setEnabled(true);
    const auto counter = [](const char *name) {
        return obs::MetricsRegistry::instance().snapshot().counters[name];
    };
    const std::string dir = tempPath("cache_tier");
    for (const IsolationMode mode :
         {IsolationMode::Thread, IsolationMode::Process,
          IsolationMode::Net}) {
        const std::string tag =
            std::to_string(static_cast<int>(mode));
        SCOPED_TRACE("isolation mode " + tag);
        std::filesystem::remove_all(dir);
        NetFixture fixture;
        const CampaignOptions base = fixture.options();
        const size_t shards = base.delays.size()
                * fixture.engine->injectionCycles(base.sampling).size()
            + 1;

        // One run over a fresh store on the directory; a cold net run
        // has two nodes, a warm one none.
        auto run = [&](bool warm) {
            service::ResultStore store(
                service::ResultStore::Options{.dir = dir});
            std::unique_ptr<NetHarness> harness;
            CampaignOptions opts = base;
            opts.isolate = mode;
            if (mode == IsolationMode::Process) {
                opts.supervisor.workerArgv = {Subprocess::selfExePath(),
                                              "--campaign-worker"};
                opts.supervisor.workers = 2;
                opts.supervisor.backoffBaseMs = 1.0;
            } else if (mode == IsolationMode::Net) {
                harness = std::make_unique<NetHarness>(fixture);
                if (!warm) {
                    harness->spawnWorker("w0");
                    harness->spawnWorker("w1");
                    EXPECT_EQ(
                        harness->coordinator->waitForNodes(2, 30000.0),
                        2u);
                }
                opts.dispatcher = harness->coordinator.get();
            }
            opts.cache = service::shardCacheHooks(store, kTestFingerprint);
            Campaign campaign(*fixture.engine, *fixture.registry, opts);
            const CampaignSummary summary = campaign.run();
            EXPECT_FALSE(summary.interrupted);
            EXPECT_EQ(summary.cellsFailed, 0u);
            EXPECT_EQ(store.stats().writes, warm ? 0u : shards);
            return summary;
        };

        const CampaignSummary cold = run(false);
        EXPECT_EQ(cold.shardsComputed, shards);
        EXPECT_EQ(cold.shardsFromCache, 0u);

        const uint64_t dispatches = counter("net.dispatches");
        const uint64_t fallbacks = counter("net.local_fallbacks");
        const CampaignSummary warm = run(true);
        EXPECT_EQ(warm.shardsFromCache, shards);
        EXPECT_EQ(warm.shardsComputed, 0u);
        EXPECT_EQ(reportJson(reportRows(warm, "")),
                  reportJson(reportRows(cold, "")));
        EXPECT_EQ(counter("net.dispatches"), dispatches);
        EXPECT_EQ(counter("net.local_fallbacks"), fallbacks);
    }
    std::filesystem::remove_all(dir);
    obs::MetricsRegistry::setEnabled(false);
}

// ----------------------------------------------------------- worker main

/** Child process entry: serve shards over TCP against the same fixture
 *  engine. Must match NetFixture exactly, or the bit-identity tests
 *  above would (correctly) fail. */
int
netWorkerMain(const std::string &spec)
{
    const size_t first = spec.find(':');
    const size_t second =
        first == std::string::npos ? first : spec.find(':', first + 1);
    if (first == std::string::npos || second == std::string::npos) {
        std::fprintf(stderr, "bad --net-worker spec '%s'\n",
                     spec.c_str());
        return 3;
    }
    NetFixture fixture;
    net::NetWorkerOptions options;
    options.host = "127.0.0.1";
    options.port =
        static_cast<uint16_t>(std::stoul(spec.substr(0, first)));
    options.nodeName = spec.substr(first + 1, second - first - 1);
    options.fingerprint = spec.substr(second + 1);
    options.connectRetries = 50;
    options.backoffBaseMs = 20.0;
    return net::runNetWorker(*fixture.engine, *fixture.registry,
                             options);
}

} // namespace
} // namespace davf

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        constexpr std::string_view kFlag = "--net-worker=";
        const std::string_view arg(argv[i]);
        if (arg.rfind(kFlag, 0) == 0) {
            return davf::netWorkerMain(
                std::string(arg.substr(kFlag.size())));
        }
    }
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--campaign-worker") {
            davf::NetFixture fixture;
            return davf::runCampaignWorker(*fixture.engine,
                                           *fixture.registry);
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
