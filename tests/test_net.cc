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

#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/campaign/campaign.hh"
#include "src/campaign/supervisor.hh"
#include "src/core/report.hh"
#include "src/core/shard.hh"
#include "src/core/vulnerability.hh"
#include "src/net/coordinator.hh"
#include "src/net/frame.hh"
#include "src/net/netfault.hh"
#include "src/net/worker.hh"
#include "src/obs/metrics.hh"
#include "src/service/result_store.hh"
#include "src/service/scheduler.hh"
#include "src/service/workspace.hh"
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

    // The welcome's period token is one positive, finite hexfloat or
    // nothing: every other tail is malformed, not ignored.
    for (const char *bad :
         {"davf-net v1 welcome 1234.5", "davf-net v1 welcome 0x0p+0",
          "davf-net v1 welcome -0x1p+10", "davf-net v1 welcome inf",
          "davf-net v1 welcome nan", "davf-net v1 welcome 0x1p+99999",
          "davf-net v1 welcome 0x", "davf-net v1 welcome 0x1p+10x",
          "davf-net v1 welcome 0x1p+10 0x1p+10",
          "davf-net v1 welcome extra"}) {
        EXPECT_FALSE(net::parseHandshakeReply(bad).ok())
            << '"' << bad << '"';
    }
    // Every truncation of a period-carrying welcome is either the bare
    // welcome, a shorter valid hexfloat, or rejected: never a crash or
    // a different kind of reply.
    const std::string welcome = net::makeWelcome(1234.5);
    for (size_t len = 0; len <= welcome.size(); ++len) {
        const Result<net::HandshakeReply> reply =
            net::parseHandshakeReply(welcome.substr(0, len));
        EXPECT_TRUE(!reply.ok() || reply.value().welcome) << len;
    }
}

TEST(Handshake, ReplyClassification)
{
    Result<net::HandshakeReply> reply =
        net::parseHandshakeReply(net::makeWelcome());
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply.value().welcome);
    EXPECT_EQ(reply.value().periodPs, 0.0); // Bare: the node measures.
    EXPECT_EQ(net::makeWelcome(), "davf-net v1 welcome");

    // The period token round-trips bit for bit, including values with
    // no short decimal form.
    for (double period : {1234.5, 0.1 * 3.0, 1e-300, 7.0e12}) {
        reply = net::parseHandshakeReply(net::makeWelcome(period));
        ASSERT_TRUE(reply.ok()) << net::makeWelcome(period);
        EXPECT_TRUE(reply.value().welcome);
        EXPECT_EQ(std::bit_cast<uint64_t>(reply.value().periodPs),
                  std::bit_cast<uint64_t>(period));
    }
    EXPECT_EQ(net::makeWelcome(1.5), "davf-net v1 welcome 0x1.8p+0");

    reply = net::parseHandshakeReply(net::makeReject("fingerprint clash"));
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply.value().welcome);
    EXPECT_EQ(reply.value().reason, "fingerprint clash");

    for (const char *bad :
         {"", "welcome", "davf-net v2 welcome", "davf-net v1 wlcome",
          "davf-net v1 welcome 0x1p+10 trailing",
          "davf-net v1 welcome 42", "davf-net v1 welcome -0x1p+0"}) {
        EXPECT_FALSE(net::parseHandshakeReply(bad).ok())
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
    const Result<net::HandshakeReply> reply =
        net::parseHandshakeReply(payload);
    ASSERT_TRUE(reply.ok()) << payload;
    EXPECT_FALSE(reply.value().welcome);
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

// ------------------------------------------------------ period adoption
//
// The observed-max clock period is measured once per campaign: process
// workers (hidden --worker-period) and net nodes (the welcome's period
// token) adopt the parent's period. These tests drive the real davf_run
// and davf_worker binaries, whose "golden:" stderr line names where the
// period came from.

/** The shared sweep: popcount under the observed-max clock. */
const char *const kToolSweep =
    " --benchmark popcount --structure ALU --delays 0.5:0.9:0.4"
    " --cycles 2 --wires 12";

std::string
tool(const std::string &name)
{
    return std::string(DAVF_TOOLS_DIR) + "/" + name;
}

/** Lines of @p log that are a golden line whose period came from
 *  @p source ("measured", "adopted"). */
size_t
goldenLines(const std::string &log, const std::string &source)
{
    std::istringstream is(log);
    size_t count = 0;
    for (std::string line; std::getline(is, line);) {
        if (line.find("golden: ") != std::string::npos
            && line.find("(" + source + ")") != std::string::npos)
            ++count;
    }
    return count;
}

/** davf_run --json of kToolSweep in thread mode, computed once. */
const std::string &
toolThreadReport()
{
    static const std::string report = [] {
        const std::string out = tempPath("adopt_thread.json");
        EXPECT_EQ(std::system((tool("davf_run") + " --json" + kToolSweep
                               + " > " + out + " 2> /dev/null")
                                  .c_str()),
                  0);
        std::string bytes = slurp(out);
        std::remove(out.c_str());
        return bytes;
    }();
    return report;
}

TEST(PeriodAdoption, ProcessWorkersAdoptAndMatchThreadMode)
{
    ASSERT_FALSE(toolThreadReport().empty());
    const std::string out = tempPath("adopt_process.json");
    const std::string log = tempPath("adopt_process.log");
    ASSERT_EQ(std::system((tool("davf_run") + " --json" + kToolSweep
                           + " --isolate process --workers 2 > " + out
                           + " 2> " + log)
                              .c_str()),
              0)
        << slurp(log);
    EXPECT_EQ(slurp(out), toolThreadReport());
    // The parent measures; every worker it started adopts.
    const std::string stderr_text = slurp(log);
    EXPECT_EQ(goldenLines(stderr_text, "measured"), 1u) << stderr_text;
    EXPECT_GE(goldenLines(stderr_text, "adopted"), 1u) << stderr_text;
    std::remove(out.c_str());
    std::remove(log.c_str());
}

TEST(PeriodAdoption, NetNodesAdoptAndMatchThreadMode)
{
    ASSERT_FALSE(toolThreadReport().empty());
    const std::string dir = tempPath("adopt_net");
    std::filesystem::create_directories(dir);
    // The coordinator publishes its port; two nodes join once it does.
    const std::string script = "cd " + dir + " || exit 1; "
        + tool("davf_run") + " --json" + kToolSweep
        + " --isolate net --listen 127.0.0.1:0 --port-file port"
          " --min-nodes 2 --node-wait-ms 60000 > net.json 2> run.log &"
          " run=$!; i=0;"
          " while [ ! -s port ] && [ $i -lt 1200 ]; do"
          " sleep 0.05; i=$((i + 1)); done;"
          " for n in n1 n2; do " + tool("davf_worker")
        + " --connect 127.0.0.1:$(cat port) --benchmark popcount"
          " --node $n 2> $n.log & done;"
          " wait $run; status=$?; wait; exit $status";
    ASSERT_EQ(std::system(script.c_str()), 0)
        << slurp(dir + "/run.log");
    EXPECT_EQ(slurp(dir + "/net.json"), toolThreadReport());
    for (const char *node : {"n1", "n2"}) {
        const std::string node_log = slurp(dir + "/" + node + ".log");
        EXPECT_EQ(goldenLines(node_log, "adopted"), 1u) << node_log;
        EXPECT_EQ(goldenLines(node_log, "measured"), 0u) << node_log;
    }
    std::filesystem::remove_all(dir);
}

TEST(PeriodAdoption, HiddenPeriodFlagIsStrict)
{
    // The hidden flag takes one positive, finite hexfloat, only in
    // worker mode and never beside --sta-period; anything else is a
    // usage error (exit 2) before any workspace is built.
    for (const std::string bin : {"davf_run", "davf_serve"}) {
        for (const std::string args :
             {"--worker-shard --worker-period 1155.7",
              "--worker-shard --worker-period 0x0p+0",
              "--worker-shard --worker-period -0x1p+10",
              "--worker-shard --worker-period inf",
              "--worker-shard --worker-period nan",
              "--worker-shard --worker-period 0x1p+99999",
              "--worker-shard --worker-period",
              "--worker-period 0x1p+10",
              "--worker-shard --sta-period --worker-period 0x1p+10"}) {
            const int status = std::system(
                (tool(bin) + " " + args + " > /dev/null 2>&1").c_str());
            EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
                << bin << ' ' << args << ": status " << status;
        }
    }
}

TEST(PeriodAdoption, BareWelcomeNodeMeasuresItsOwnPeriod)
{
    // A coordinator that sends no period token (one that predates it)
    // leaves a davf_worker node to measure the period itself; the
    // bytes still match thread mode.
    service::WorkspaceSpec spec;
    spec.benchmark = "popcount";
    service::Workspace workspace(spec);
    VulnerabilityEngine &engine = workspace.engine();

    CampaignOptions opts;
    opts.benchmark = "popcount";
    opts.structures = {"ALU"};
    opts.delays = {0.5, 0.9};
    opts.sampling.maxInjectionCycles = 2;
    opts.sampling.maxWires = 12;
    auto reportOf = [&](const CampaignOptions &options) {
        Campaign campaign(engine, workspace.structures(), options);
        const CampaignSummary summary = campaign.run();
        EXPECT_EQ(summary.cellsFailed, 0u);
        return reportJson(reportRows(summary, ""));
    };
    const std::string reference = reportOf(opts);

    net::ListenSocket listener = net::listenTcp("127.0.0.1", 0);
    const uint16_t port = listener.port;
    net::CoordinatorOptions net_options;
    net_options.fingerprint = workspace.fingerprint();
    net_options.localCycle = [&](const ShardSpec &shard) {
        return engine.delayAvfCycle(
            workspace.structure(shard.structure), shard.delayFraction,
            shard.cycle, shard.sampling, shard.wireBegin, shard.wireEnd,
            shard.quarantined);
    };
    net::Coordinator coordinator(listener, std::move(net_options));

    const std::string log = tempPath("bare_welcome.log");
    Subprocess node;
    node.spawn({"/bin/sh", "-c",
                "exec " + tool("davf_worker")
                    + " --connect 127.0.0.1:" + std::to_string(port)
                    + " --benchmark popcount --node bare 2> " + log});
    ASSERT_EQ(coordinator.waitForNodes(1, 60000.0), 1u);

    opts.isolate = IsolationMode::Net;
    opts.dispatcher = &coordinator;
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::setEnabled(true);
    EXPECT_EQ(reportOf(opts), reference);
    coordinator.shutdown();
    obs::MetricsRegistry::setEnabled(false);
    std::map<std::string, uint64_t> counters =
        obs::MetricsRegistry::instance().snapshot().counters;
    obs::MetricsRegistry::instance().reset();
    EXPECT_GT(counters["net.dispatches"], 0u); // The node served.
    EXPECT_EQ(counters["net.local_fallbacks"], 0u);
    const ExitStatus status = node.wait();
    EXPECT_TRUE(status.exited && status.code == 0) << status.describe();

    const std::string node_log = slurp(log);
    EXPECT_EQ(goldenLines(node_log, "measured"), 1u) << node_log;
    EXPECT_EQ(goldenLines(node_log, "adopted"), 0u) << node_log;
    std::remove(log.c_str());
}

// ------------------------------------------------- the store as a tier
//
// davf_run --store-dir puts the result store behind the campaign in
// every isolation mode, and only the parent opens it. These tests drive
// the real davf_run binary.

/** Every file under @p dir with its bytes. */
std::map<std::string, std::string>
dirContents(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            files[entry.path().string()] = slurp(entry.path().string());
    }
    return files;
}

/** Counter @p name of a davf-metrics snapshot; 0 when absent. */
uint64_t
metricsCounter(const std::string &json, const std::string &name)
{
    const std::string key = "\"" + name + "\":";
    const size_t at = json.find(key);
    return at == std::string::npos
        ? 0
        : std::stoull(json.substr(at + key.size()));
}

TEST(StoreTier, ProcessRunOverAThreadRunsStoreComputesNothing)
{
    ASSERT_FALSE(toolThreadReport().empty());
    const std::string dir = tempPath("store_tier");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto run = [&](const std::string &mode, const std::string &name) {
        const std::string args = " --json" + std::string(kToolSweep)
            + mode + " --store-dir " + dir + "/store --metrics-json "
            + dir + "/" + name + ".metrics > " + dir + "/" + name
            + ".json 2> " + dir + "/" + name + ".log";
        EXPECT_EQ(std::system((tool("davf_run") + args).c_str()), 0)
            << slurp(dir + "/" + name + ".log");
        return slurp(dir + "/" + name + ".json");
    };

    // Cold, in-process: computes every shard and fills the store.
    EXPECT_EQ(run("", "thread"), toolThreadReport());
    EXPECT_GT(metricsCounter(slurp(dir + "/thread.metrics"),
                             "engine.cycles_computed"),
              0u);
    const auto filled = dirContents(dir + "/store");
    ASSERT_FALSE(filled.empty());

    // Warm, process-isolated over the same store: the same bytes, no
    // shard computed or dispatched, and the store untouched.
    EXPECT_EQ(run(" --isolate process --workers 2", "process"),
              toolThreadReport());
    const std::string metrics = slurp(dir + "/process.metrics");
    EXPECT_GT(metricsCounter(metrics, "store.disk_hits"), 0u) << metrics;
    EXPECT_EQ(metricsCounter(metrics, "engine.cycles_computed"), 0u);
    EXPECT_EQ(metricsCounter(metrics, "supervisor.dispatches"), 0u);
    EXPECT_EQ(dirContents(dir + "/store"), filled);
    std::filesystem::remove_all(dir);
}

TEST(StoreTier, ProcessWorkersNeverOpenTheStore)
{
    ASSERT_FALSE(toolThreadReport().empty());
    const std::string dir = tempPath("store_workers");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    // Cold, process-isolated: the workers are started with the
    // parent's arguments, --store-dir included, and must leave the
    // store to the parent; a worker opening it would lose the lock
    // and warn.
    const std::string cold = tool("davf_run") + " --json" + kToolSweep
        + " --isolate process --workers 2 --store-dir " + dir
        + "/store > " + dir + "/cold.json 2> " + dir + "/cold.log";
    ASSERT_EQ(std::system(cold.c_str()), 0) << slurp(dir + "/cold.log");
    EXPECT_EQ(slurp(dir + "/cold.json"), toolThreadReport());
    const std::string cold_log = slurp(dir + "/cold.log");
    EXPECT_GE(goldenLines(cold_log, "adopted"), 1u) << cold_log;
    EXPECT_EQ(cold_log.find("another process owns the store"),
              std::string::npos)
        << cold_log;

    // What the parent stored serves a warm in-process run whole.
    const std::string warm = tool("davf_run") + " --json" + kToolSweep
        + " --store-dir " + dir + "/store --metrics-json " + dir
        + "/warm.metrics > " + dir + "/warm.json 2> /dev/null";
    ASSERT_EQ(std::system(warm.c_str()), 0);
    EXPECT_EQ(slurp(dir + "/warm.json"), toolThreadReport());
    EXPECT_EQ(metricsCounter(slurp(dir + "/warm.metrics"),
                             "engine.cycles_computed"),
              0u);
    std::filesystem::remove_all(dir);
}

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
