/**
 * @file
 * Tests for the shard link (src/campaign/shard_link.hh), the one frame
 * exchange both isolation transports share:
 *
 *  - the same scripted worker frames over a pipe pair (the process
 *    transport) and a socketpair (the net transport) end the exchange
 *    with the same transport-neutral status, and both sources map that
 *    status onto the one classification (docs/ROBUSTNESS.md), with or
 *    without a reaped worker's exit status;
 *  - the worker serve loop answers, rejects, and hands shards to its
 *    hook over a real link;
 *  - the retry backoff stays finite for any attempt and keeps the
 *    jitter of every attempt the unclamped formula defined.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/campaign/checkpoint.hh"
#include "src/campaign/fleet.hh"
#include "src/campaign/shard_link.hh"
#include "src/net/frame.hh"
#include "src/obs/metrics.hh"
#include "src/util/clock.hh"
#include "src/util/hash.hh"
#include "src/util/subprocess.hh"
#include "tests/helpers.hh"

namespace davf {
namespace {

using Status = ShardReply::Status;

const LinkMetrics &
testMetrics()
{
    static const LinkMetrics metrics("test_link");
    return metrics;
}

/**
 * One transport under test: the parent's FrameLink plus the raw worker
 * ends a scripted worker reads the request from and writes replies to.
 */
struct Channel
{
    std::unique_ptr<FrameLink> parent;
    std::vector<int> parentFds; ///< Closed at teardown (pipes only).
    int workerIn = -1;
    int workerOut = -1;

    /** Close the worker's ends: EOF (or EPIPE) for the parent. */
    void
    closeWorker()
    {
        if (workerOut >= 0 && workerOut != workerIn)
            ::close(workerOut);
        if (workerIn >= 0)
            ::close(workerIn);
        workerIn = workerOut = -1;
    }

    ~Channel()
    {
        closeWorker();
        parent.reset();
        for (int fd : parentFds)
            ::close(fd);
    }
};

/** The process transport: a request pipe and a reply pipe. */
std::unique_ptr<Channel>
pipeChannel()
{
    int down[2];
    int up[2];
    EXPECT_EQ(::pipe(down), 0);
    EXPECT_EQ(::pipe(up), 0);
    auto channel = std::make_unique<Channel>();
    channel->parent = std::make_unique<FdFrameLink>(up[0], down[1]);
    channel->parentFds = {up[0], down[1]};
    channel->workerIn = down[0];
    channel->workerOut = up[1];
    return channel;
}

/** The net transport: one stream socket, both directions. */
std::unique_ptr<Channel>
socketChannel()
{
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    auto channel = std::make_unique<Channel>();
    channel->parent = std::make_unique<net::FrameConn>(sv[0]);
    channel->workerIn = channel->workerOut = sv[1];
    return channel;
}

ShardSpec
cycleSpec()
{
    ShardSpec spec;
    spec.kind = ShardSpec::Kind::Cycle;
    spec.structure = "Rnd";
    spec.delayFraction = 0.5;
    spec.cycle = 7;
    return spec;
}

InjectionCycleOutcome
sampleOutcome()
{
    InjectionCycleOutcome outcome;
    outcome.cycle = 7;
    outcome.injections = 12;
    outcome.delayAce = 3;
    outcome.wireDyn = {1, 0, 1};
    outcome.wireAce = {1, 0, 0};
    return outcome;
}

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** What a scripted worker does once it has read the shard request. */
using Script = std::function<void(Channel &)>;

/** A scripted exchange and what each transport must make of it. */
struct Case
{
    const char *name;
    Script script;
    double heartbeatMs;
    double shardMs;
    Status status;
    /** For a worker reaped after SIGABRT, and for a node (no exit
     *  status). */
    ShardOutcome outcome;
};

std::vector<Case>
scriptedCases()
{
    const std::string ok_reply = "ok davf "
        + serializeOutcomeFields(sampleOutcome()) + " rss 4242 0.5 0.25";
    return {
        {"hb then ok davf",
         [ok_reply](Channel &c) {
             writeFrameFd(c.workerOut, "hb");
             writeFrameFd(c.workerOut, ok_reply);
         },
         2000.0, 0.0, Status::Ok, ShardOutcome::Ok},
        {"err kind message",
         [](Channel &c) {
             writeFrameFd(c.workerOut, "err timeout budget blown");
         },
         2000.0, 0.0, Status::WorkerError, ShardOutcome::Error},
        {"garbage payload",
         [](Channel &c) {
             writeFrameFd(c.workerOut, "ok davf !garbled!");
         },
         2000.0, 0.0, Status::BadReply, ShardOutcome::BadOutput},
        {"eof mid-shard", [](Channel &c) { c.closeWorker(); }, 2000.0, 0.0,
         Status::Eof, ShardOutcome::Crash},
        {"torn length prefix",
         [](Channel &c) {
             const char prefix[2] = {5, 0};
             EXPECT_EQ(::write(c.workerOut, prefix, sizeof prefix), 2);
             c.closeWorker();
         },
         2000.0, 0.0, Status::Torn, ShardOutcome::BadOutput},
        {"heartbeat silence", [](Channel &) { sleepMs(600); }, 100.0, 0.0,
         Status::Silent, ShardOutcome::Timeout},
        {"heartbeating stall past the deadline",
         [](Channel &c) {
             for (int i = 0; i < 40; ++i) {
                 sleepMs(20);
                 try {
                     writeFrameFd(c.workerOut, "hb");
                 } catch (const DavfError &) {
                     return; // The parent has hung up.
                 }
             }
         },
         1000.0, 200.0, Status::Deadline, ShardOutcome::Timeout},
    };
}

/** Run @p script as the worker of one exchange over @p channel. */
ShardReply
runScripted(Channel &channel, const Case &scripted)
{
    std::thread worker([&] {
        std::string request;
        EXPECT_TRUE(readFrameFd(channel.workerIn, request));
        EXPECT_EQ(request.rfind("shard ", 0), 0u) << request;
        scripted.script(channel);
    });
    const ShardReply reply =
        exchangeShard(*channel.parent, cycleSpec(), scripted.heartbeatMs,
                      scripted.shardMs, nowMs(), testMetrics());
    worker.join();
    return reply;
}

ExitStatus
abortedWorker()
{
    ExitStatus status;
    status.signaled = true;
    status.signal = SIGABRT;
    return status;
}

class ShardLink : public ::testing::Test
{
  protected:
    void SetUp() override { ::signal(SIGPIPE, SIG_IGN); }
};

TEST_F(ShardLink, ScriptedRepliesClassifyAlikeOverPipesAndSockets)
{
    for (const Case &scripted : scriptedCases()) {
        for (const bool over_socket : {false, true}) {
            SCOPED_TRACE(std::string(scripted.name)
                         + (over_socket ? " (socketpair)" : " (pipes)"));
            const std::unique_ptr<Channel> channel =
                over_socket ? socketChannel() : pipeChannel();
            const ShardReply reply = runScripted(*channel, scripted);
            EXPECT_EQ(reply.status, scripted.status) << reply.detail;
            EXPECT_EQ(classifyShardReply(reply.status, abortedWorker()),
                      scripted.outcome);
            EXPECT_EQ(classifyShardReply(reply.status), scripted.outcome);
            if (reply.status == Status::Ok) {
                EXPECT_EQ(reply.cycleOutcome, sampleOutcome());
                EXPECT_EQ(reply.rssKb, 4242);
                EXPECT_EQ(reply.userSec, 0.5);
                EXPECT_EQ(reply.sysSec, 0.25);
            }
            if (reply.status == Status::WorkerError) {
                EXPECT_EQ(reply.detail, "timeout: budget blown");
            }
        }
    }
}

TEST_F(ShardLink, UnsendableRequestIsALostWorker)
{
    for (const bool over_socket : {false, true}) {
        SCOPED_TRACE(over_socket ? "socketpair" : "pipes");
        const std::unique_ptr<Channel> channel =
            over_socket ? socketChannel() : pipeChannel();
        channel->closeWorker();
        const ShardReply reply = exchangeShard(
            *channel->parent, cycleSpec(), 2000.0, 0.0, nowMs(),
            testMetrics());
        EXPECT_EQ(reply.status, Status::SendFailed) << reply.detail;
        EXPECT_EQ(classifyShardReply(reply.status, abortedWorker()),
                  ShardOutcome::Crash);
        EXPECT_EQ(classifyShardReply(reply.status), ShardOutcome::Crash);
    }
}

TEST_F(ShardLink, LostWorkerExitingWith86IsOom)
{
    ExitStatus oom;
    oom.exited = true;
    oom.code = 86;
    for (const Status status : {Status::Eof, Status::SendFailed})
        EXPECT_EQ(classifyShardReply(status, oom), ShardOutcome::Oom);
    // A protocol failure is the worker's output, whatever its exit.
    EXPECT_EQ(classifyShardReply(Status::Torn, oom),
              ShardOutcome::BadOutput);
    EXPECT_STREQ(shardOutcomeName(ShardOutcome::BadOutput), "bad-output");
}

TEST_F(ShardLink, QuitAndDrainConsumesAReplyRacingTheQuit)
{
    const std::unique_ptr<Channel> channel = socketChannel();
    std::thread worker([&] {
        std::string frame;
        EXPECT_TRUE(readFrameFd(channel->workerIn, frame));
        EXPECT_EQ(frame, "quit");
        writeFrameFd(channel->workerOut, "ok davf racing-the-quit");
        channel->closeWorker();
    });
    const double started = nowMs();
    quitAndDrain({channel->parent.get()}, 5000.0);
    worker.join();
    EXPECT_LT(nowMs() - started, 4000.0) << "drain waited out its grace";
}

/** A small engine and the in-process outcome of one of its shards. */
struct ServeFixture
{
    test::RandomCircuit circuit = test::makeRandomCircuit(11, 8, 40, 12);
    VulnerabilityEngine engine{*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload};
    StructureRegistry registry{*circuit.netlist};

    ServeFixture() { registry.add("Rnd", "rnd/"); }

    ShardSpec
    spec()
    {
        ShardSpec spec = cycleSpec();
        spec.sampling.maxWires = 20;
        spec.cycle = engine.injectionCycles(spec.sampling).front();
        return spec;
    }
};

/** Withholds or garbles replies on request. */
struct ScriptedHook final : ShardHook
{
    bool garble = false;
    unsigned shards = 0;

    bool
    beforeShard(const ShardSpec &) override
    {
        ++shards;
        return true;
    }

    bool
    beforeReply(const ShardSpec &, std::string &reply) override
    {
        if (garble)
            reply = "ok davf !garbled-by-hook!";
        return true;
    }
};

TEST_F(ShardLink, ServeLoopAnswersShardsAndEndsOnQuit)
{
    ServeFixture fixture;
    const ShardSpec spec = fixture.spec();
    SamplingConfig single = spec.sampling;
    single.threads = 1;
    const InjectionCycleOutcome expected = fixture.engine.delayAvfCycle(
        *fixture.registry.find("Rnd"), spec.delayFraction, spec.cycle,
        single);

    for (const bool over_socket : {false, true}) {
        SCOPED_TRACE(over_socket ? "socketpair" : "pipes");
        const std::unique_ptr<Channel> channel =
            over_socket ? socketChannel() : pipeChannel();
        // The worker side of the pipes, seen from the worker.
        std::unique_ptr<FrameLink> worker_link;
        if (over_socket) {
            worker_link = std::make_unique<net::FrameConn>(
                std::exchange(channel->workerIn, -1));
            channel->workerOut = -1;
        } else {
            worker_link = std::make_unique<FdFrameLink>(
                channel->workerIn, channel->workerOut);
        }
        ScriptedHook hook;
        ServeEnd end = ServeEnd::Eof;
        std::thread worker([&] {
            end = serveShards(*worker_link, fixture.engine,
                              fixture.registry, &hook);
        });

        FrameLink &parent = *channel->parent;
        std::string frame;
        parent.send("bogus");
        ASSERT_EQ(parent.read(frame, 5000.0), FrameLink::ReadStatus::Frame);
        EXPECT_EQ(frame, "err bad-input unknown frame");

        ShardSpec unknown = spec;
        unknown.structure = "Nope";
        ShardReply reply = exchangeShard(parent, unknown, 5000.0, 0.0,
                                         nowMs(), testMetrics());
        EXPECT_EQ(reply.status, Status::WorkerError);
        EXPECT_EQ(reply.detail, "not-found: unknown structure 'Nope'");

        reply = exchangeShard(parent, spec, 5000.0, 0.0, nowMs(),
                              testMetrics());
        ASSERT_EQ(reply.status, Status::Ok) << reply.detail;
        EXPECT_EQ(reply.cycleOutcome, expected);
        EXPECT_GT(reply.rssKb, 0);

        hook.garble = true;
        reply = exchangeShard(parent, spec, 5000.0, 0.0, nowMs(),
                              testMetrics());
        EXPECT_EQ(reply.status, Status::BadReply);

        parent.send("quit");
        worker.join();
        EXPECT_EQ(end, ServeEnd::Quit);
        EXPECT_EQ(hook.shards, 2u);
    }
}

TEST_F(ShardLink, HeartbeatsFlowWhileAShardComputes)
{
    // A long workload makes one sAVF shard outlast two heartbeat
    // intervals, so the worker's heartbeat thread writes frames while
    // the reply path waits on the same write mutex. How long a
    // workload that takes depends on the host, so the workload doubles
    // (a bounded number of times) until one exchange is long enough.
    const bool was_metering = obs::MetricsRegistry::enabled();
    obs::MetricsRegistry::setEnabled(true);
    const auto heartbeats = [] {
        return obs::MetricsRegistry::instance()
            .snapshot()
            .counters["test_link.heartbeats"];
    };
    ShardReply reply;
    double took_ms = 0.0;
    uint64_t beats = 0;
    for (size_t cycles = 20000, tries = 0; tries < 4;
         cycles *= 2, ++tries) {
        test::RandomCircuit circuit =
            test::makeRandomCircuit(11, 8, 60, cycles);
        VulnerabilityEngine engine(*circuit.netlist,
                                   CellLibrary::defaultLibrary(),
                                   *circuit.workload);
        StructureRegistry registry(*circuit.netlist);
        registry.add("Rnd", "rnd/");

        const std::unique_ptr<Channel> channel = socketChannel();
        net::FrameConn worker_link(std::exchange(channel->workerIn, -1));
        channel->workerOut = -1;
        std::thread worker(
            [&] { serveShards(worker_link, engine, registry); });

        const uint64_t before = heartbeats();
        ShardSpec spec;
        spec.kind = ShardSpec::Kind::Savf;
        spec.structure = "Rnd";
        spec.sampling.maxInjectionCycles = 24;
        const double started = nowMs();
        reply = exchangeShard(*channel->parent, spec, 5000.0, 0.0,
                              started, testMetrics());
        took_ms = nowMs() - started;
        channel->parent->send("quit");
        worker.join();
        beats = heartbeats() - before;
        if (reply.status != Status::Ok || took_ms > 400.0)
            break;
    }
    obs::MetricsRegistry::setEnabled(was_metering);

    ASSERT_EQ(reply.status, Status::Ok) << reply.detail;
    EXPECT_GT(reply.savfOutcome.injections, 0u);
    // Twice the 200 ms heartbeat interval: at least one beat was due.
    ASSERT_GT(took_ms, 400.0) << "shard too short to need a heartbeat";
    EXPECT_GE(beats, 1u) << took_ms << " ms";
}

TEST_F(ShardLink, BackoffIsFiniteAndKeepsTheUnclampedJitter)
{
    const ShardSpec spec = cycleSpec();
    const double base_ms = 50.0;
    const uint64_t seed = 9;
    for (unsigned attempt = 0; attempt <= 40; ++attempt) {
        const double delay = retryBackoffMs(base_ms, spec, attempt, seed);
        EXPECT_TRUE(std::isfinite(delay)) << attempt;
        EXPECT_GE(delay, base_ms) << attempt;
        EXPECT_LT(delay, base_ms * 1025.0) << attempt;
        if (attempt >= 10)
            continue;
        // The unclamped formula: below the clamp, delays match it.
        const uint64_t jitter = fnv1a64(
            spec.structure + ':' + std::to_string(spec.cycle) + ':'
            + std::to_string(attempt) + ':' + std::to_string(seed));
        double old_delay = base_ms * static_cast<double>(1u << attempt);
        old_delay += static_cast<double>(jitter % 1000) / 1000.0 * base_ms;
        EXPECT_EQ(std::bit_cast<uint64_t>(delay),
                  std::bit_cast<uint64_t>(old_delay))
            << attempt;
    }
}

} // namespace
} // namespace davf
