/**
 * @file
 * Tests for the resilience layer:
 *
 *  - the recoverable error taxonomy (DavfError kinds, Result<T>,
 *    library errors that used to exit());
 *  - atomic file writes;
 *  - progress in the result store: a sweep interrupted mid-cell and
 *    rerun over the same store, at a different thread count or under
 *    process isolation, stores the uninterrupted run's outcomes and
 *    CSV byte-for-byte, computing only the missing shards; a rerun over
 *    a complete store computes nothing, and a cell that failed the
 *    failure-rate gate fails again with the same reason;
 *  - per-injection fault isolation: timeouts become skip accounting,
 *    excessive failure rates fail the cell but not the campaign;
 *  - the cooperative SIGINT/SIGTERM stop flag;
 *  - the shard and quarantine parsers, fuzz-ish;
 *  - supervised process isolation: bit-identity with thread mode at
 *    any worker count, and crash -> retry -> bisect -> quarantine;
 *  - the query scheduler's isolated path: worker replies byte-identical
 *    to an in-process scheduler's.
 *
 * The binary re-executes itself as a campaign worker when invoked with
 * --campaign-worker (rebuilding the same fixture engine), so it has
 * its own main() instead of linking gtest_main.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "src/campaign/campaign.hh"
#include "src/campaign/stop.hh"
#include "src/campaign/supervisor.hh"
#include "src/core/report.hh"
#include "src/core/shard.hh"
#include "src/core/vulnerability.hh"
#include "src/isa/benchmarks.hh"
#include "src/obs/metrics.hh"
#include "src/service/result_store.hh"
#include "src/service/scheduler.hh"
#include "src/util/atomic_file.hh"
#include "src/util/error.hh"
#include "src/util/logging.hh"
#include "src/util/subprocess.hh"
#include "tests/helpers.hh"

namespace davf {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "davf_test_"
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

// ---------------------------------------------------------------- errors

TEST(ErrorTaxonomy, KindsHaveStableNames)
{
    EXPECT_EQ(errorKindName(ErrorKind::Timeout), "timeout");
    EXPECT_EQ(errorKindName(ErrorKind::NotFound), "not-found");
    EXPECT_EQ(errorKindName(ErrorKind::ExcessiveFailures),
              "excessive-failures");
}

TEST(ErrorTaxonomy, ResultCarriesValueOrError)
{
    const auto ok = Result<int>::Ok(42);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);

    const auto err = Result<int>::Err(ErrorKind::Io, "disk on fire");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.error().kind(), ErrorKind::Io);
    EXPECT_THROW(err.value(), DavfError);
}

TEST(ErrorTaxonomy, ThrownMessageIsItsTextAlone)
{
    // what() travels into reports, CSVs and replies, so it must not
    // carry the build's source path; the location stays available for
    // the stderr "fatal:" line.
    try {
        davf_throw(ErrorKind::Io, "disk on fire: ", 42);
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_STREQ(error.what(), "disk on fire: 42");
        EXPECT_EQ(error.kind(), ErrorKind::Io);
        ASSERT_NE(error.file(), nullptr);
        EXPECT_NE(std::string_view(error.file()).find("test_campaign"),
                  std::string_view::npos);
        EXPECT_GT(error.line(), 0);
    }
}

TEST(ErrorTaxonomy, UnknownBenchmarkThrowsNotFound)
{
    // Used to davf_fatal (uncatchable); a sweep driver must be able to
    // catch it.
    try {
        beebsBenchmark("no-such-benchmark");
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::NotFound);
    }
}

TEST(ErrorTaxonomy, OutOfRangeDelayThrows)
{
    const auto circuit = test::makeRandomCircuit(3, 6, 24, 8);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");
    try {
        engine.delayAvf(structure, 5.0);
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::OutOfRange);
    }
}

// ----------------------------------------------------------- atomic file

TEST(AtomicFile, WritesContentsAndLeavesNoTemporary)
{
    const std::string path = tempPath("atomic.txt");
    writeFileAtomic(path, "first");
    EXPECT_EQ(slurp(path), "first");
    writeFileAtomic(path, "second");
    EXPECT_EQ(slurp(path), "second");
    // The temporary is pid-suffixed; it must be gone after the rename.
    std::ifstream tmp(path + ".tmp." + std::to_string(::getpid()));
    EXPECT_FALSE(static_cast<bool>(tmp));
    std::remove(path.c_str());
}

TEST(AtomicFile, UnwritablePathThrowsIo)
{
    try {
        writeFileAtomic("/no-such-dir-davf/x.txt", "y");
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::Io);
    }
}

// -------------------------------------------------------------- campaign

struct CampaignFixture
{
    test::RandomCircuit circuit;
    std::unique_ptr<VulnerabilityEngine> engine;
    std::unique_ptr<StructureRegistry> registry;

    explicit CampaignFixture(uint64_t seed = 11, unsigned lanes = 64)
        : circuit(test::makeRandomCircuit(seed, 8, 40, 12))
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

TEST(Campaign, UnknownStructureThrowsNotFound)
{
    CampaignFixture fixture;
    CampaignOptions opts = fixture.options();
    opts.structures = {"NoSuchUnit"};
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    try {
        campaign.run();
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::NotFound);
    }
}

TEST(Campaign, InterruptedResumeIsBitIdenticalAcrossThreadCounts)
{
    const std::string ref_csv = tempPath("ref.csv");
    const std::string cut_csv = tempPath("cut.csv");
    const std::string dir = tempPath("cut_store");
    std::filesystem::remove_all(dir);

    // Reference: uninterrupted, 1 thread, no store.
    test::ShardLog ref_log;
    CampaignSummary ref;
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.sampling.threads = 1;
        opts.csvPath = ref_csv;
        opts.cache = ref_log.wrap();
        ref = Campaign(*fixture.engine, *fixture.registry, opts).run();
        EXPECT_FALSE(ref.interrupted);
        EXPECT_EQ(ref.cellsComputed, 4u); // 3 delays + sAVF
        EXPECT_EQ(ref.cellsFailed, 0u);
    }

    // Interrupted mid-sweep: raise the stop flag after a few stored
    // cycles (every injection cycle is stored as it completes, so this
    // lands inside a cell).
    test::ShardLog cut_log;
    std::atomic<bool> stop{false};
    uint64_t cut_computed = 0;
    {
        service::ResultStore store({dir});
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.sampling.threads = 2;
        opts.csvPath = cut_csv;
        opts.stopFlag = &stop;
        opts.cache = cut_log.wrap(test::stopAfterStores(
            service::shardCacheHooks(store, "fp"), 3, stop));
        const CampaignSummary summary =
            Campaign(*fixture.engine, *fixture.registry, opts).run();
        EXPECT_TRUE(summary.interrupted);
        EXPECT_LT(summary.cellsComputed, 4u);
        cut_computed = summary.shardsComputed;
    }
    ASSERT_GE(cut_computed, 3u);

    // Rerun over the same store at a different thread count: the
    // stored cycles are adopted, only the rest is computed, and the
    // outcomes and CSV are byte-identical to the uninterrupted run.
    {
        service::ResultStore store({dir});
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.sampling.threads = 3;
        opts.csvPath = cut_csv;
        opts.cache = cut_log.wrap(service::shardCacheHooks(store, "fp"));
        const CampaignSummary summary =
            Campaign(*fixture.engine, *fixture.registry, opts).run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cells.size(), 4u);
        EXPECT_EQ(summary.shardsFromCache, cut_computed);
        EXPECT_EQ(cut_computed + summary.shardsComputed,
                  ref.shardsComputed);
    }

    EXPECT_EQ(cut_log.shards, ref_log.shards);
    EXPECT_EQ(slurp(cut_csv), slurp(ref_csv));

    std::filesystem::remove_all(dir);
    for (const auto &path : {ref_csv, cut_csv})
        std::remove(path.c_str());
}

/** The --json report of @p summary. */
std::string
reportOf(const CampaignSummary &summary)
{
    return reportJson(reportRows(summary, ""));
}

TEST(Campaign, ResumingACompleteJournalComputesNothing)
{
    // The store a finished campaign filled holds every shard of it: a
    // rerun over it adopts them all and simulates nothing.
    const std::string dir = tempPath("complete_store");
    std::filesystem::remove_all(dir);
    std::string ref_report;
    {
        service::ResultStore store({dir});
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.cache = service::shardCacheHooks(store, "fp");
        ref_report = reportOf(
            Campaign(*fixture.engine, *fixture.registry, opts).run());
    }

    service::ResultStore store({dir});
    CampaignFixture fixture;
    CampaignOptions opts = fixture.options();
    opts.cache = service::shardCacheHooks(store, "fp");
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::setEnabled(true);
    const CampaignSummary summary =
        Campaign(*fixture.engine, *fixture.registry, opts).run();
    obs::MetricsRegistry::setEnabled(false);
    const std::map<std::string, uint64_t> counters =
        obs::MetricsRegistry::instance().snapshot().counters;
    obs::MetricsRegistry::instance().reset();

    EXPECT_EQ(summary.cells.size(), 4u);
    EXPECT_EQ(summary.shardsComputed, 0u);
    EXPECT_GT(summary.shardsFromCache, 0u);
    const auto computed = counters.find("engine.cycles_computed");
    EXPECT_EQ(computed == counters.end() ? 0u : computed->second, 0u);
    // The aggregates are derived from the stored outcomes again.
    EXPECT_EQ(reportOf(summary), ref_report);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, TimeoutsBecomeSkipsNotCrashes)
{
    CampaignFixture fixture;
    CampaignOptions opts = fixture.options();
    opts.delays = {0.6};
    opts.runSavf = false;
    // An impossible per-injection budget: every continuation times out.
    opts.sampling.injectionTimeoutMs = 1e-6;
    opts.maxFailureRate = 1.0; // tolerate them all
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    const CampaignSummary summary = campaign.run();
    ASSERT_EQ(summary.cells.size(), 1u);
    const DelayAvfResult &result = summary.cells[0].davf;
    EXPECT_FALSE(summary.cells[0].failed);
    EXPECT_GT(result.skippedErrors, 0u);
    EXPECT_GT(result.skipReasons.count("timeout"), 0u);
    // Skipped injections leave the denominator.
    EXPECT_LE(result.skippedErrors, result.injections);
}

TEST(Campaign, ExcessiveFailuresFailTheCellNotTheCampaign)
{
    CampaignFixture fixture;
    CampaignOptions opts = fixture.options();
    opts.runSavf = false;
    opts.sampling.injectionTimeoutMs = 1e-6; // force a ~100% failure rate
    opts.maxFailureRate = 0.01;
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    const CampaignSummary summary = campaign.run();
    ASSERT_EQ(summary.cells.size(), 3u);
    EXPECT_EQ(summary.cellsFailed, 3u);
    for (const CampaignCellResult &cell : summary.cells) {
        EXPECT_TRUE(cell.failed);
        EXPECT_NE(cell.failReason.find("injections failed"),
                  std::string::npos)
            << cell.failReason;
    }
    EXPECT_FALSE(summary.interrupted)
        << "failed cells must not abort the sweep";
}

TEST(Campaign, RerunFailsAnExcessiveFailuresCellAgainFromTheStore)
{
    // A failed cell has no stored verdict, but its cycles are stored:
    // a rerun re-aggregates them, computing nothing, and fails the
    // cell with the same reason.
    const std::string dir = tempPath("failed_store");
    std::filesystem::remove_all(dir);
    CampaignFixture fixture;
    CampaignOptions opts = fixture.options();
    opts.delays = {0.6};
    opts.runSavf = false;
    opts.sampling.injectionTimeoutMs = 1e-6; // ~100% failure rate
    opts.maxFailureRate = 0.01;

    std::string reason;
    {
        service::ResultStore store({dir});
        opts.cache = service::shardCacheHooks(store, "fp");
        const CampaignSummary summary =
            Campaign(*fixture.engine, *fixture.registry, opts).run();
        ASSERT_EQ(summary.cells.size(), 1u);
        ASSERT_TRUE(summary.cells[0].failed);
        EXPECT_GT(summary.shardsComputed, 0u);
        reason = summary.cells[0].failReason;
    }
    service::ResultStore store({dir});
    opts.cache = service::shardCacheHooks(store, "fp");
    const CampaignSummary summary =
        Campaign(*fixture.engine, *fixture.registry, opts).run();
    ASSERT_EQ(summary.cells.size(), 1u);
    EXPECT_TRUE(summary.cells[0].failed);
    EXPECT_EQ(summary.cells[0].failKind, ErrorKind::ExcessiveFailures);
    EXPECT_EQ(summary.cells[0].failReason, reason);
    EXPECT_EQ(summary.shardsComputed, 0u);
    EXPECT_EQ(summary.cellsFailed, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, PresetStopFlagInterruptsBeforeWork)
{
    CampaignFixture fixture;
    std::atomic<bool> stop{true};
    CampaignOptions opts = fixture.options();
    opts.stopFlag = &stop;
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    const CampaignSummary summary = campaign.run();
    EXPECT_TRUE(summary.interrupted);
    EXPECT_EQ(summary.cellsComputed, 0u);
}

TEST(StopFlag, SigintRaisesTheFlagCooperatively)
{
    const std::atomic<bool> &flag = installStopHandlers();
    resetStopFlag();
    EXPECT_FALSE(flag.load());
    ::raise(SIGINT); // first signal: cooperative, no process exit
    EXPECT_TRUE(flag.load());
    resetStopFlag();
    EXPECT_FALSE(flag.load());
}

// ------------------------------------------------------ shard wire format

TEST(ShardFormat, RoundTripsAndRejectsGarbage)
{
    ShardSpec spec;
    spec.kind = ShardSpec::Kind::Cycle;
    spec.structure = "ALU";
    spec.delayFraction = 1.0 / 3.0;
    spec.cycle = 1234;
    spec.wireBegin = 3;
    spec.wireEnd = 17;
    spec.quarantined = {4, 9};
    spec.sampling.maxInjectionCycles = 7;
    spec.sampling.maxWires = 30;
    spec.sampling.seed = 99;
    spec.sampling.injectionTimeoutMs = 12.5;

    const std::string line = serializeShardSpec(spec);
    const Result<ShardSpec> parsed = parseShardSpec(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error().what();
    EXPECT_EQ(parsed.value().structure, "ALU");
    EXPECT_EQ(parsed.value().delayFraction, spec.delayFraction);
    EXPECT_EQ(parsed.value().cycle, 1234u);
    EXPECT_EQ(parsed.value().wireBegin, 3u);
    EXPECT_EQ(parsed.value().wireEnd, 17u);
    EXPECT_EQ(parsed.value().quarantined, spec.quarantined);
    EXPECT_EQ(parsed.value().sampling.maxWires, 30u);
    EXPECT_EQ(parsed.value().sampling.seed, 99u);
    EXPECT_EQ(parsed.value().sampling.injectionTimeoutMs, 12.5);

    ShardSpec savf;
    savf.kind = ShardSpec::Kind::Savf;
    savf.structure = "LSU";
    const Result<ShardSpec> savf_parsed =
        parseShardSpec(serializeShardSpec(savf));
    ASSERT_TRUE(savf_parsed.ok());
    EXPECT_EQ(savf_parsed.value().kind, ShardSpec::Kind::Savf);
    EXPECT_EQ(savf_parsed.value().structure, "LSU");

    EXPECT_FALSE(parseShardSpec("").ok());
    EXPECT_FALSE(parseShardSpec("wat 1 2 3").ok());
    EXPECT_FALSE(parseShardSpec("cycle ALU").ok());
    // An absurd quarantine count must be rejected, not allocated.
    EXPECT_FALSE(
        parseShardSpec("cycle ALU 0x1p-1 4 0 10 99999999999 1").ok());

    // No truncation may crash the parser.
    for (size_t n = 0; n < line.size(); ++n)
        (void)parseShardSpec(line.substr(0, n));
}

TEST(QuarantineFormat, RoundTripsAndPersists)
{
    QuarantineRecord record;
    record.configHash = "feedc0de";
    record.benchmark = "md5";
    record.structure = "ALU";
    record.delayFraction = 0.7;
    record.cycle = 42;
    record.wireIndex = 3;
    record.wire = 77;
    record.seed = 5;
    record.reason = "killed by signal 6 (Aborted)";

    const std::string line = serializeQuarantineRecord(record);
    EXPECT_NE(line.find("davf-quarantine v1"), std::string::npos);
    const Result<QuarantineRecord> parsed = parseQuarantineRecord(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error().what();
    EXPECT_EQ(parsed.value(), record);

    EXPECT_FALSE(parseQuarantineRecord("").ok());
    EXPECT_FALSE(parseQuarantineRecord("davf-quarantine v999 x").ok());
    for (size_t n = 0; n < line.size(); ++n)
        (void)parseQuarantineRecord(line.substr(0, n));

    // Directory persistence: save under a fresh dir, load it back.
    const std::string dir = tempPath("qdir");
    std::filesystem::remove_all(dir);
    saveQuarantineRecord(dir, record);
    QuarantineRecord other = record;
    other.delayFraction = 0.9; // must get its own file, not overwrite
    saveQuarantineRecord(dir, other);
    std::vector<QuarantineRecord> loaded = loadQuarantineRecords(dir);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_TRUE((loaded[0] == record && loaded[1] == other)
                || (loaded[0] == other && loaded[1] == record));

    EXPECT_TRUE(loadQuarantineRecords(tempPath("no-such-qdir")).empty());
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ process isolation

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

/** Campaign options running shards in worker processes. */
CampaignOptions
processOptions(const CampaignFixture &fixture, unsigned workers)
{
    CampaignOptions opts = fixture.options();
    opts.isolate = IsolationMode::Process;
    opts.supervisor.workerArgv = {Subprocess::selfExePath(),
                                  "--campaign-worker"};
    opts.supervisor.workers = workers;
    opts.supervisor.backoffBaseMs = 1.0;
    return opts;
}

TEST(Campaign, ProcessIsolationIsBitIdenticalToThreadMode)
{
    const std::string thread_csv = tempPath("iso_thread.csv");

    test::ShardLog ref_log;
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.csvPath = thread_csv;
        opts.cache = ref_log.wrap();
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
    }
    const std::string ref_csv = slurp(thread_csv);

    // Process isolation at two different worker counts: every stored
    // outcome and the CSV must match thread mode byte for byte.
    for (unsigned workers : {1u, 3u}) {
        const std::string tag = std::to_string(workers);
        const std::string csv = tempPath("iso_proc" + tag + ".csv");
        CampaignFixture fixture;
        CampaignOptions opts = processOptions(fixture, workers);
        opts.csvPath = csv;
        test::ShardLog log;
        opts.cache = log.wrap();
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
        EXPECT_TRUE(summary.quarantined.empty());
        EXPECT_EQ(log.shards, ref_log.shards) << workers << " workers";
        EXPECT_EQ(slurp(csv), ref_csv) << workers << " workers";
        std::remove(csv.c_str());
    }

    std::remove(thread_csv.c_str());
}

TEST(Campaign, InterruptedProcessRunContinuesFromTheStore)
{
    // A process-isolated run stopped mid-cell, rerun over its store
    // with another worker count, reports the bytes of an uninterrupted
    // thread-mode run.
    const std::string dir = tempPath("proc_store");
    std::filesystem::remove_all(dir);
    std::string ref_report;
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        ref_report = reportOf(
            Campaign(*fixture.engine, *fixture.registry, opts).run());
    }

    std::atomic<bool> stop{false};
    {
        service::ResultStore store({dir});
        CampaignFixture fixture;
        CampaignOptions opts = processOptions(fixture, 2);
        opts.stopFlag = &stop;
        opts.cache = test::stopAfterStores(
            service::shardCacheHooks(store, "fp"), 3, stop);
        const CampaignSummary summary =
            Campaign(*fixture.engine, *fixture.registry, opts).run();
        EXPECT_TRUE(summary.interrupted);
        EXPECT_GE(summary.shardsComputed, 3u);
    }

    service::ResultStore store({dir});
    CampaignFixture fixture;
    CampaignOptions opts = processOptions(fixture, 3);
    opts.cache = service::shardCacheHooks(store, "fp");
    const CampaignSummary summary =
        Campaign(*fixture.engine, *fixture.registry, opts).run();
    EXPECT_FALSE(summary.interrupted);
    EXPECT_GE(summary.shardsFromCache, 3u);
    EXPECT_EQ(reportOf(summary), ref_report);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, LaneWidthIsBitIdenticalAcrossIsolation)
{
    // The engine's lane width is a speed knob: a campaign over an
    // engine that batches one continuation and one cone at a time must
    // store the same outcomes and CSV bytes as the default run, in
    // thread mode and under process isolation — so supervised fleets
    // may mix engines of any width.
    const std::string ref_csv = tempPath("tsim_ref.csv");
    test::ShardLog ref_log;
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.csvPath = ref_csv;
        opts.cache = ref_log.wrap();
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        EXPECT_FALSE(campaign.run().interrupted);
    }
    const std::string ref_csv_bytes = slurp(ref_csv);
    std::remove(ref_csv.c_str());

    {
        const std::string csv = tempPath("tsim_narrow.csv");
        CampaignFixture fixture(11, 2);
        CampaignOptions opts = fixture.options();
        opts.csvPath = csv;
        test::ShardLog log;
        opts.cache = log.wrap();
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        EXPECT_FALSE(campaign.run().interrupted);
        EXPECT_EQ(log.shards, ref_log.shards) << "thread mode";
        EXPECT_EQ(slurp(csv), ref_csv_bytes) << "thread mode";
        std::remove(csv.c_str());
    }

    {
        // A narrow supervisor engine driving default-width workers:
        // the two widths mix freely within one campaign.
        const std::string csv = tempPath("tsim_proc.csv");
        CampaignFixture fixture(11, 3);
        CampaignOptions opts = processOptions(fixture, 2);
        opts.csvPath = csv;
        test::ShardLog log;
        opts.cache = log.wrap();
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
        EXPECT_EQ(log.shards, ref_log.shards) << "process mode";
        EXPECT_EQ(slurp(csv), ref_csv_bytes) << "process mode";
        std::remove(csv.c_str());
    }
}

TEST(Campaign, WorkerCrashIsRetriedBisectedAndQuarantined)
{
    const std::string qdir = tempPath("crash_qdir");
    const std::string metrics = tempPath("crash_metrics.csv");
    std::filesystem::remove_all(qdir);
    std::remove(metrics.c_str());

    CampaignFixture fixture;
    CampaignOptions opts = processOptions(fixture, 2);
    opts.delays = {0.6};
    opts.runSavf = false;
    opts.supervisor.maxRetries = 1;
    opts.supervisor.quarantineDir = qdir;
    opts.supervisor.metricsCsvPath = metrics;
    test::ShardLog log;
    opts.cache = log.wrap();

    // Aim the deterministic crash hook at one (cycle, wire) injection;
    // the workers inherit the environment and die there with SIGABRT.
    const std::vector<uint64_t> cycles =
        fixture.engine->injectionCycles(opts.sampling);
    ASSERT_FALSE(cycles.empty());
    const uint64_t target = cycles[cycles.size() / 2];
    QuarantineRecord record;
    {
        EnvGuard fault("DAVF_TEST_FAULT",
                       "crash@Rnd:" + std::to_string(target) + ":2");
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();

        EXPECT_FALSE(summary.interrupted);
        ASSERT_EQ(summary.cells.size(), 1u);
        EXPECT_FALSE(summary.cells[0].failed)
            << summary.cells[0].failReason;

        // The crash was bisected down to the single injection.
        ASSERT_EQ(summary.quarantined.size(), 1u);
        record = summary.quarantined[0];
        EXPECT_EQ(record.structure, "Rnd");
        EXPECT_EQ(record.cycle, target);
        EXPECT_EQ(record.wireIndex, 2u);
        EXPECT_NE(record.reason.find("signal"), std::string::npos)
            << record.reason;

        // Quarantined injections are skip-tallied, not silently lost.
        const DelayAvfResult &davf = summary.cells[0].davf;
        EXPECT_EQ(davf.skipReasons.count("quarantined"), 1u);
        EXPECT_GE(davf.skippedErrors, 1u);
        EXPECT_LE(davf.skippedErrors, davf.injections);
    }

    // The record was persisted and is loadable.
    const std::vector<QuarantineRecord> loaded =
        loadQuarantineRecords(qdir);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0], record);

    // Per-attempt metrics recorded crashes and successes.
    const std::string csv = slurp(metrics);
    EXPECT_NE(csv.find("outcome,wall_ms,max_rss_kb"), std::string::npos);
    EXPECT_NE(csv.find(",crash,"), std::string::npos);
    EXPECT_NE(csv.find(",ok,"), std::string::npos);

    // Convergence: with the fault disarmed but the quarantine records
    // kept, a fresh campaign stores the exact same outcomes without a
    // single crash (the known-bad injection stays excluded).
    test::ShardLog log2;
    {
        CampaignFixture fixture2;
        CampaignOptions opts2 = processOptions(fixture2, 2);
        opts2.delays = {0.6};
        opts2.runSavf = false;
        opts2.supervisor.quarantineDir = qdir;
        opts2.cache = log2.wrap();
        Campaign campaign(*fixture2.engine, *fixture2.registry, opts2);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_TRUE(summary.quarantined.empty())
            << "no new quarantines expected";
    }
    EXPECT_EQ(log2.shards, log.shards);

    std::filesystem::remove_all(qdir);
    std::remove(metrics.c_str());
}

TEST(Campaign, QuarantineBudgetRunsOutWhileAnotherWorkerBisects)
{
    // Every cycle of the cell crashes on one injection, so two workers
    // bisect side by side until the per-cell quarantine budget (4)
    // runs out. The slot that finds the budget spent fails the cell
    // while the other may still be bisecting: the run must end with a
    // failed cell that reports every injection it quarantined. With a
    // retry (and its backoff) per shard, the other slot's shard uses up
    // its retries just after the cell failed; that late step must
    // still see the spent budget.
    const std::string qdir = tempPath("budget_qdir");
    std::filesystem::remove_all(qdir);

    CampaignFixture fixture;
    CampaignOptions opts = processOptions(fixture, 2);
    opts.delays = {0.6};
    opts.runSavf = false;
    opts.sampling.cycleFraction = 1.0;
    opts.sampling.maxInjectionCycles = 8;
    opts.supervisor.maxRetries = 1;
    opts.supervisor.backoffBaseMs = 20.0;
    opts.supervisor.quarantineDir = qdir;
    const std::vector<uint64_t> cycles =
        fixture.engine->injectionCycles(opts.sampling);
    ASSERT_GT(cycles.size(), 4u);

    EnvGuard fault("DAVF_TEST_FAULT", "crash@Rnd:*:2");
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    const CampaignSummary summary = campaign.run();

    EXPECT_FALSE(summary.interrupted);
    ASSERT_EQ(summary.cells.size(), 1u);
    EXPECT_TRUE(summary.cells[0].failed);
    EXPECT_NE(summary.cells[0].failReason.find("quarantine budget"),
              std::string::npos)
        << summary.cells[0].failReason;
    // Both slots may pass the budget check before either records its
    // quarantine, so the budget can be overrun by one per extra slot.
    EXPECT_GE(summary.quarantined.size(), 4u);
    EXPECT_LE(summary.quarantined.size(), 5u);
    for (const QuarantineRecord &record : summary.quarantined)
        EXPECT_EQ(record.wireIndex, 2u);
    EXPECT_EQ(loadQuarantineRecords(qdir).size(),
              summary.quarantined.size());

    std::filesystem::remove_all(qdir);
}

TEST(Campaign, HungWorkerIsKilledByTheShardDeadline)
{
    const std::string qdir = tempPath("hang_qdir");
    std::filesystem::remove_all(qdir);

    CampaignFixture fixture;
    CampaignOptions opts = processOptions(fixture, 1);
    opts.delays = {0.6};
    opts.runSavf = false;
    // A small shard keeps the bisection probes cheap: each probe that
    // contains the hanging injection burns one deadline.
    opts.sampling.maxInjectionCycles = 2;
    opts.sampling.maxWires = 8;
    // One quarantined injection out of 8 wires would trip the default
    // 5% failure threshold; this test is about the deadline, not that.
    opts.maxFailureRate = 0.5;
    opts.supervisor.maxRetries = 0;
    opts.supervisor.shardTimeoutMs = 1000.0;
    opts.supervisor.quarantineDir = qdir;

    const std::vector<uint64_t> cycles =
        fixture.engine->injectionCycles(opts.sampling);
    ASSERT_FALSE(cycles.empty());
    const uint64_t target = cycles.front();

    // The hook hangs while heartbeating, so only the shard deadline
    // (not the heartbeat watchdog) can catch it.
    EnvGuard fault("DAVF_TEST_FAULT",
                   "hang@Rnd:" + std::to_string(target) + ":1");
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    const CampaignSummary summary = campaign.run();

    EXPECT_FALSE(summary.interrupted);
    ASSERT_EQ(summary.cells.size(), 1u);
    EXPECT_FALSE(summary.cells[0].failed) << summary.cells[0].failReason;
    ASSERT_EQ(summary.quarantined.size(), 1u);
    EXPECT_EQ(summary.quarantined[0].cycle, target);
    EXPECT_EQ(summary.quarantined[0].wireIndex, 1u);
    EXPECT_NE(summary.quarantined[0].reason.find("budget"),
              std::string::npos)
        << summary.quarantined[0].reason;

    std::filesystem::remove_all(qdir);
}

TEST(Campaign, WorkerThatCannotStartFailsTheCellWithoutQuarantine)
{
    // A worker that exits before its hello never ran the shard: the
    // start failure is retried, then fails the cell naming it. It must
    // not be bisected, or the quarantine directory would exclude a
    // healthy injection from every later run.
    const std::string qdir = tempPath("nostart_qdir");
    std::filesystem::remove_all(qdir);

    CampaignFixture fixture;
    CampaignOptions opts = processOptions(fixture, 1);
    opts.supervisor.workerArgv = {"/bin/false"};
    opts.delays = {0.6};
    opts.runSavf = false;
    opts.supervisor.maxRetries = 1;
    opts.supervisor.quarantineDir = qdir;
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    const CampaignSummary summary = campaign.run();

    EXPECT_FALSE(summary.interrupted);
    ASSERT_EQ(summary.cells.size(), 1u);
    EXPECT_TRUE(summary.cells[0].failed);
    EXPECT_NE(summary.cells[0].failReason.find(
                  "campaign worker failed to start"),
              std::string::npos)
        << summary.cells[0].failReason;
    EXPECT_TRUE(summary.quarantined.empty());
    EXPECT_TRUE(loadQuarantineRecords(qdir).empty());
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(qdir, ec)) {
        ADD_FAILURE() << "quarantine file written: " << entry.path();
    }
    std::filesystem::remove_all(qdir);

    // The reason names the failure, not the source file that raised
    // it: reports must not depend on the build directory.
    EXPECT_EQ(summary.cells[0].failReason.find(".cc:"), std::string::npos)
        << summary.cells[0].failReason;
}

// ------------------------------------------ isolated query scheduler

TEST(SchedulerIsolation, WorkerRepliesAreByteIdenticalToInProcess)
{
    // davf_serve --isolate process: the scheduler ships its store misses
    // to worker processes through a ShardDispatcher. The reply must be
    // the in-process scheduler's bytes, DelayAVF rows and sAVF row alike.
    CampaignFixture fixture;
    service::QuerySpec query;
    query.structure = "Rnd";
    query.delays = {0.3, 0.9};
    query.runSavf = true;
    query.sampling = fixture.options().sampling;

    auto answer = [&](std::vector<std::string> worker_argv) {
        service::ResultStore store(service::ResultStore::Options{});
        service::QueryScheduler::Options options;
        options.benchmark = "rndtrace";
        options.threads = 2;
        std::unique_ptr<Supervisor> supervisor;
        if (!worker_argv.empty()) {
            SupervisorOptions sup;
            sup.workerArgv = std::move(worker_argv);
            sup.workers = 2;
            sup.configHash = "test-fp";
            sup.benchmark = options.benchmark;
            supervisor = std::make_unique<Supervisor>(
                *fixture.engine, *fixture.registry, std::move(sup));
        }
        options.dispatcher = supervisor.get();
        service::QueryScheduler scheduler(*fixture.engine,
                                          *fixture.registry, "test-fp",
                                          store, options);
        const Result<service::QueryScheduler::QueryReply> reply =
            scheduler.run(query);
        if (!reply) {
            ADD_FAILURE() << reply.error().what();
            return std::string();
        }
        EXPECT_EQ(reply.value().storeHits, 0u);
        EXPECT_GT(reply.value().storeMisses, 0u);
        return reply.value().reportJson;
    };
    const std::string in_process = answer({});
    const std::string isolated =
        answer({Subprocess::selfExePath(), "--campaign-worker"});
    EXPECT_NE(in_process.find("\"savf\""), std::string::npos)
        << in_process;
    EXPECT_EQ(isolated, in_process);
}

TEST(SchedulerIsolation, QuarantineStaysWithTheQueryThatFoundIt)
{
    // One worker pool serves every query of an isolated scheduler. A
    // query whose worker crashes on one injection quarantines it; a
    // later query with another seed and no fault must still get the
    // in-process bytes, although the same (cycle, wire index) pair is
    // in its shards.
    CampaignFixture fixture;
    service::QuerySpec first;
    first.structure = "Rnd";
    first.delays = {0.6};
    first.sampling = fixture.options().sampling;
    service::QuerySpec second = first;
    second.sampling.seed = first.sampling.seed + 1;

    // Crash on a pair that is DelayACE in the second query's order, so
    // excluding it there would change that query's reply.
    const Structure &rnd = *fixture.registry->find("Rnd");
    const std::vector<uint64_t> second_cycles =
        fixture.engine->injectionCycles(second.sampling);
    uint64_t target = 0;
    size_t culprit = SIZE_MAX;
    for (uint64_t cycle : fixture.engine->injectionCycles(first.sampling)) {
        if (std::find(second_cycles.begin(), second_cycles.end(), cycle)
            == second_cycles.end())
            continue;
        const uint64_t ace =
            fixture.engine->delayAvfCycle(rnd, 0.6, cycle, second.sampling)
                .delayAce;
        for (size_t k = 0; k < second.sampling.maxWires; ++k) {
            const size_t excluded[] = {k};
            if (fixture.engine
                    ->delayAvfCycle(rnd, 0.6, cycle, second.sampling, 0,
                                    SIZE_MAX, excluded)
                    .delayAce
                != ace) {
                target = cycle;
                culprit = k;
                break;
            }
        }
        if (culprit != SIZE_MAX)
            break;
    }
    ASSERT_NE(culprit, SIZE_MAX) << "no shared cycle has a DelayACE wire";

    service::QueryScheduler::Options options;
    options.benchmark = "rndtrace";
    options.threads = 2;
    service::ResultStore reference_store(service::ResultStore::Options{});
    service::QueryScheduler reference(*fixture.engine, *fixture.registry,
                                      "test-fp", reference_store, options);
    const std::string fault_file = tempPath("scheduler_fault");
    SupervisorOptions sup;
    sup.workerArgv = {Subprocess::selfExePath(), "--campaign-worker",
                      "--fault-file=" + fault_file};
    sup.maxRetries = 1;
    sup.configHash = "test-fp";
    sup.benchmark = options.benchmark;
    Supervisor supervisor(*fixture.engine, *fixture.registry,
                          std::move(sup));
    options.dispatcher = &supervisor;
    service::ResultStore isolated_store(service::ResultStore::Options{});
    service::QueryScheduler isolated(*fixture.engine, *fixture.registry,
                                     "test-fp", isolated_store, options);

    auto answer = [](service::QueryScheduler &scheduler,
                     const service::QuerySpec &query) {
        const Result<service::QueryScheduler::QueryReply> reply =
            scheduler.run(query);
        if (!reply) {
            ADD_FAILURE() << reply.error().what();
            return std::string();
        }
        return reply.value().reportJson;
    };
    auto arm = [&](const std::string &fault) {
        std::ofstream(fault_file, std::ios::trunc) << fault;
    };

    arm("crash@Rnd:" + std::to_string(target) + ":"
        + std::to_string(culprit));
    EXPECT_NE(answer(isolated, first), answer(reference, first))
        << "the fault never fired";
    arm("");
    EXPECT_EQ(answer(isolated, second), answer(reference, second));
    std::remove(fault_file.c_str());
}

/** Re-arms DAVF_TEST_FAULT from a file before every shard, so one
 *  long-lived worker can crash on one query and not on the next. */
class FaultFileHook final : public ShardHook
{
  public:
    explicit FaultFileHook(std::string the_path)
        : path(std::move(the_path))
    {}

    bool
    beforeShard(const ShardSpec &) override
    {
        std::ifstream file(path);
        std::string fault;
        std::getline(file, fault);
        if (fault.empty())
            ::unsetenv("DAVF_TEST_FAULT");
        else
            ::setenv("DAVF_TEST_FAULT", fault.c_str(), 1);
        return true;
    }

    bool beforeReply(const ShardSpec &, std::string &) override
    {
        return true;
    }

  private:
    std::string path;
};

/** The hidden worker mode: rebuild the fixture engine and serve
 *  shards. Must match CampaignFixture exactly, or the bit-identity
 *  tests above would (correctly) fail. With @p fault_file, faults come
 *  from that file (FaultFileHook). */
int
campaignWorkerMain(const std::string &fault_file)
{
    CampaignFixture fixture;
    if (fault_file.empty())
        return runCampaignWorker(*fixture.engine, *fixture.registry);
    ::signal(SIGPIPE, SIG_IGN);
    FaultFileHook hook(fault_file);
    FdFrameLink link(STDIN_FILENO, STDOUT_FILENO);
    link.send("hello");
    serveShards(link, *fixture.engine, *fixture.registry, &hook);
    return 0;
}

} // namespace
} // namespace davf

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) != "--campaign-worker")
            continue;
        const std::string_view flag = "--fault-file=";
        std::string fault_file;
        if (i + 1 < argc && std::string_view(argv[i + 1]).starts_with(flag))
            fault_file = argv[i + 1] + flag.size();
        return davf::campaignWorkerMain(fault_file);
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
