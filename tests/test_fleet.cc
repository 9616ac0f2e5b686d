/**
 * @file
 * Tests for the shard fleet (src/campaign/fleet.hh), the one dispatch
 * core behind both isolation modes, driven by scripted workers over
 * socketpairs:
 *
 *  - a shard that fails on every attempt reaches its source's
 *    out-of-retries step after exactly maxRetries + 1 attempts, each
 *    re-dispatch after one backoff wait;
 *  - a shard that fails on one worker retires that worker and
 *    completes on another;
 *  - an injection quarantined by an out-of-retries step that ends after
 *    another worker failed the cell is still reported with the cell.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/checkpoint.hh"
#include "src/campaign/fleet.hh"
#include "src/net/frame.hh"
#include "src/obs/metrics.hh"

namespace davf {
namespace {

const FleetMetrics &
testMetrics()
{
    static const FleetMetrics metrics("test_fleet", "test_fleet.retries");
    return metrics;
}

/** How a scripted worker answers every shard. */
enum class Script : uint8_t { Ok, Garble, Error };

/**
 * A fleet of scripted workers: each slot's worker is a thread serving
 * one end of a socketpair. A retryable ending retires the worker; with
 * @c respawn a fresh one takes the slot (process style), otherwise the
 * slot ends (net style). The out-of-retries step records the job's
 * attempt count and fails the cell.
 */
class ScriptedFleet final : public ShardDispatcher
{
  public:
    ScriptedFleet(const DispatchOptions &policy, bool respawn_workers)
        : ShardDispatcher(policy, testMetrics()), respawn(respawn_workers)
    {}

    ~ScriptedFleet() override { shutdown(); }

    void
    addWorker(const std::string &name, Script script)
    {
        auto worker = std::make_shared<Worker>();
        worker->name = name;
        worker->script = script;
        worker->fleet = this;
        addSlot(std::move(worker));
    }

    /** Ok and Error workers hold their replies until a Garble worker
     *  replied. */
    std::atomic<bool> holdReplies{false};

    /** The out-of-retries step waits for an Error worker's reply, then
     *  quarantines wire index 0 and reruns the job. */
    bool quarantineAfterError = false;

    std::mutex mutex;
    std::map<std::string, unsigned> dispatches; ///< Per worker name.
    std::map<std::string, unsigned> failures;   ///< Per worker name.
    std::vector<unsigned> exhaustedAttempts;
    std::atomic<bool> garbled{false}; ///< A Garble worker has replied.
    std::atomic<bool> errored{false}; ///< An Error worker has replied.

  private:
    struct Worker : Slot
    {
        Script script = Script::Ok;
        ScriptedFleet *fleet = nullptr;
        std::unique_ptr<net::FrameConn> conn;
        std::thread thread;

        FrameLink *
        link() override
        {
            return conn && conn->open() ? conn.get() : nullptr;
        }

        void
        close() override
        {
            if (conn)
                conn->close();
            if (thread.joinable())
                thread.join();
        }

        void
        start()
        {
            int sv[2];
            ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
            conn = std::make_unique<net::FrameConn>(sv[0]);
            thread = std::thread([this, fd = sv[1]] { serve(fd); });
        }

        void
        serve(int fd)
        {
            std::string frame;
            try {
                while (readFrameFd(fd, frame) && frame != "quit") {
                    Result<ShardSpec> spec = parseShardSpec(frame.substr(6));
                    ASSERT_TRUE(spec.ok()) << frame;
                    if (script == Script::Garble) {
                        writeFrameFd(fd, "ok davf !garbled!");
                        fleet->garbled.store(true);
                        continue;
                    }
                    for (int i = 0; i < 1000 && fleet->holdReplies
                                    && !fleet->garbled;
                         ++i) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(5));
                    }
                    if (script == Script::Error) {
                        writeFrameFd(fd, "err internal scripted failure");
                        fleet->errored.store(true);
                        continue;
                    }
                    InjectionCycleOutcome outcome;
                    outcome.cycle = spec.value().cycle;
                    outcome.injections = 4;
                    outcome.wireDyn = {1, 0, 0, 1};
                    outcome.wireAce = {1, 0, 0, 0};
                    writeFrameFd(fd, "ok davf "
                                         + serializeOutcomeFields(outcome));
                }
            } catch (const DavfError &) {
                // The fleet hung up mid-reply.
            }
            ::close(fd);
        }
    };

    ShardAttempt
    dispatch(Slot &slot, const ShardSpec &spec, double started_ms) override
    {
        Worker &worker = static_cast<Worker &>(slot);
        if (!worker.conn)
            worker.start();
        ShardAttempt attempt = exchange(*worker.conn, spec, started_ms);
        const std::lock_guard<std::mutex> lock(mutex);
        ++dispatches[worker.name];
        if (attempt.retryable()) {
            ++failures[worker.name];
            worker.close();
            worker.conn.reset();
            if (!respawn)
                endSlot(worker);
        }
        return attempt;
    }

    Settlement
    retriesExhausted(Slot &, ShardJob &job, const ShardAttempt &,
                     size_t) override
    {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            exhaustedAttempts.push_back(job.attempts);
        }
        if (!quarantineAfterError)
            return {Settlement::Kind::Fail, "retries used up"};
        for (int i = 0; i < 1000 && !errored; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        // Let the error reply fail the cell first.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        QuarantineRecord record;
        record.structure = job.spec.structure;
        record.cycle = job.spec.cycle;
        job.spec.quarantined.push_back(0);
        return {Settlement::Kind::Rerun, {}, record};
    }

    Settlement
    orphaned(ShardJob &) override
    {
        return {Settlement::Kind::Fail, "no workers left"};
    }

    const bool respawn;
};

uint64_t
counter(const std::string &name)
{
    return obs::MetricsRegistry::instance().snapshot().counters[name];
}

class Fleet : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::signal(SIGPIPE, SIG_IGN);
        wasMetering = obs::MetricsRegistry::enabled();
        obs::MetricsRegistry::setEnabled(true);
    }

    void TearDown() override { obs::MetricsRegistry::setEnabled(wasMetering); }

    bool wasMetering = false;
};

TEST_F(Fleet, ShardFailingEveryAttemptIsExhaustedAfterMaxRetriesPlusOne)
{
    for (const unsigned max_retries : {0u, 1u, 3u}) {
        SCOPED_TRACE("maxRetries " + std::to_string(max_retries));
        DispatchOptions policy;
        policy.maxRetries = max_retries;
        policy.backoffBaseMs = 1.0;
        policy.heartbeatTimeoutMs = 5000.0;
        ScriptedFleet fleet(policy, true);
        fleet.addWorker("w0", Script::Garble);

        const uint64_t retries_before = counter("test_fleet.retries");
        const uint64_t waits_before = counter("test_fleet.backoff_waits");
        unsigned delivered = 0;
        const ShardDispatcher::CellResult cell = fleet.runDavfCell(
            "S", 0.5, {7}, SamplingConfig{},
            [&](const InjectionCycleOutcome &) { ++delivered; });

        EXPECT_TRUE(cell.failed);
        EXPECT_EQ(cell.failReason, "cycle 7: retries used up");
        EXPECT_EQ(delivered, 0u);
        const std::lock_guard<std::mutex> lock(fleet.mutex);
        EXPECT_EQ(fleet.exhaustedAttempts,
                  std::vector<unsigned>{max_retries + 1});
        EXPECT_EQ(fleet.dispatches["w0"], max_retries + 1);
        // One backoff wait before each of the maxRetries re-dispatches.
        EXPECT_EQ(counter("test_fleet.retries") - retries_before,
                  max_retries);
        EXPECT_EQ(counter("test_fleet.backoff_waits") - waits_before,
                  max_retries);
    }
}

TEST_F(Fleet, ShardFailingOnOneWorkerCompletesOnAnother)
{
    DispatchOptions policy;
    policy.maxRetries = 2;
    policy.backoffBaseMs = 1.0;
    policy.heartbeatTimeoutMs = 5000.0;
    ScriptedFleet fleet(policy, false);
    fleet.addWorker("good", Script::Ok);
    fleet.addWorker("bad", Script::Garble);

    // The good worker holds its reply until the bad worker has answered
    // a shard, so the bad worker is sure to take one of the two.
    fleet.holdReplies = true;

    std::vector<uint64_t> delivered;
    const ShardDispatcher::CellResult cell = fleet.runDavfCell(
        "S", 0.5, {3, 4}, SamplingConfig{},
        [&](const InjectionCycleOutcome &outcome) {
            delivered.push_back(outcome.cycle);
        });

    EXPECT_FALSE(cell.failed) << cell.failReason;
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered, (std::vector<uint64_t>{3, 4}));
    const std::lock_guard<std::mutex> lock(fleet.mutex);
    EXPECT_EQ(fleet.dispatches["bad"], 1u);
    EXPECT_EQ(fleet.failures["bad"], 1u);
    EXPECT_EQ(fleet.dispatches["good"], 2u);
    EXPECT_EQ(fleet.failures["good"], 0u);
    EXPECT_TRUE(fleet.exhaustedAttempts.empty());
    // The garbling worker was retired and its slot ended.
    EXPECT_EQ(fleet.slotCount(), 1u);
}

TEST_F(Fleet, QuarantineSettledAfterTheCellFailedIsStillReported)
{
    // One worker's out-of-retries step is still at work (process
    // isolation bisects there) when another worker's `err` reply fails
    // the cell. The injection the step quarantined was persisted, so
    // the cell must report it rather than lose it or abort.
    DispatchOptions policy;
    policy.maxRetries = 0;
    policy.backoffBaseMs = 1.0;
    policy.heartbeatTimeoutMs = 5000.0;
    ScriptedFleet fleet(policy, true);
    fleet.addWorker("crashy", Script::Garble);
    fleet.addWorker("failing", Script::Error);
    fleet.holdReplies = true;
    fleet.quarantineAfterError = true;

    const ShardDispatcher::CellResult cell = fleet.runDavfCell(
        "S", 0.5, {3, 4}, SamplingConfig{},
        [](const InjectionCycleOutcome &) {});

    EXPECT_TRUE(cell.failed);
    EXPECT_NE(cell.failReason.find("error (internal: scripted failure)"),
              std::string::npos)
        << cell.failReason;
    ASSERT_EQ(cell.quarantined.size(), 1u);
    EXPECT_EQ(cell.quarantined[0].structure, "S");
    const std::lock_guard<std::mutex> lock(fleet.mutex);
    EXPECT_EQ(fleet.exhaustedAttempts, std::vector<unsigned>{1});
}

} // namespace
} // namespace davf
