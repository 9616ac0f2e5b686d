/**
 * @file
 * Tests for the resilience layer:
 *
 *  - the recoverable error taxonomy (DavfError kinds, Result<T>,
 *    library errors that used to exit());
 *  - atomic file writes;
 *  - checkpoint serialization: bit-exact double round-trips, rejection
 *    of corrupt/mismatched journals;
 *  - campaign checkpoint/resume: an interrupted-then-resumed sweep
 *    reproduces the uninterrupted journal and CSV byte-for-byte, at a
 *    different thread count;
 *  - per-injection fault isolation: timeouts become skip accounting,
 *    excessive failure rates fail the cell but not the campaign;
 *  - the cooperative SIGINT/SIGTERM stop flag;
 *  - lenient loading of journals with a torn final line, plus a
 *    fuzz-ish corpus over the checkpoint/shard/quarantine parsers;
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
#include "src/campaign/checkpoint.hh"
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
#include "src/util/rng.hh"
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
    // what() travels into journals, reports and replies, so it must not
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

// ------------------------------------------------------------ checkpoint

/** A journaled outcome of @p cycle over four sampled wires. */
InjectionCycleOutcome
sampleOutcome(uint64_t cycle)
{
    InjectionCycleOutcome outcome;
    outcome.cycle = cycle;
    outcome.injections = 40;
    outcome.staticInjections = 3;
    outcome.delayAce = 4;
    outcome.skippedErrors = 1;
    outcome.skipReasons = {{"timeout", 1}};
    outcome.wireDyn = {1, 0, 1, 1};
    outcome.wireAce = {0, 0, 1, 0};
    return outcome;
}

/** Every record kind: a finished davf cell, a failed one, a finished
 *  sAVF cell, and two open davf cells. */
Checkpoint
sampleCheckpoint()
{
    Checkpoint checkpoint;
    checkpoint.configHash = "feedc0de";

    CheckpointCell davf_cell;
    davf_cell.key = {"davf", "md5", "ALU", canonicalDelay(1.0 / 3.0)};
    davf_cell.state = CheckpointCell::State::Ok;
    davf_cell.addCycle(sampleOutcome(40));
    davf_cell.addCycle(sampleOutcome(17));
    checkpoint.cells.push_back(davf_cell);

    CheckpointCell failed_cell;
    failed_cell.key = {"davf", "md5", "LSU", canonicalDelay(0.5)};
    failed_cell.state = CheckpointCell::State::Failed;
    failed_cell.failReason = "structure 'LSU': too many failures";
    checkpoint.cells.push_back(failed_cell);

    CheckpointCell savf_cell;
    savf_cell.key = {"savf", "md5", "ALU", canonicalDelay(0.0)};
    savf_cell.state = CheckpointCell::State::Ok;
    savf_cell.savf.savf = 5e-324; // subnormal
    savf_cell.savf.injections = 64;
    savf_cell.savf.aceInjections = 44;
    checkpoint.cells.push_back(savf_cell);

    for (double d : {0.7, 0.9}) {
        CheckpointCell open_cell;
        open_cell.key = {"davf", "md5", "Regfile", canonicalDelay(d)};
        open_cell.addCycle(sampleOutcome(17));
        checkpoint.cells.push_back(open_cell);
    }
    return checkpoint;
}

TEST(CheckpointFormat, RoundTripsBitExactly)
{
    const Checkpoint before = sampleCheckpoint();
    const std::string text = serializeCheckpoint(before);
    const Result<Checkpoint> parsed = parseCheckpoint(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().what();
    const Checkpoint &after = parsed.value();

    EXPECT_EQ(after.configHash, before.configHash);
    ASSERT_EQ(after.cells.size(), before.cells.size());
    for (size_t i = 0; i < after.cells.size(); ++i) {
        EXPECT_TRUE(after.cells[i].key == before.cells[i].key) << i;
        EXPECT_EQ(after.cells[i].state, before.cells[i].state) << i;
        EXPECT_EQ(after.cells[i].cycles, before.cells[i].cycles) << i;
    }
    // addCycle keeps schedule (ascending cycle) order.
    ASSERT_EQ(after.cells[0].cycles.size(), 2u);
    EXPECT_EQ(after.cells[0].cycles[0].cycle, 17u);
    EXPECT_EQ(after.cells[1].failReason, before.cells[1].failReason);
    // Hexfloat serialization must be bit-exact, including subnormals.
    EXPECT_EQ(after.cells[2].savf.savf, 5e-324);
    EXPECT_EQ(after.cells[2].savf.aceInjections, 44u);

    // Serialization is deterministic.
    EXPECT_EQ(serializeCheckpoint(after), text);
}

TEST(CheckpointFormat, RecordsParseInAnyOrderAndSerializeCanonically)
{
    const std::string text = serializeCheckpoint(sampleCheckpoint());
    std::vector<std::string> records;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        records.push_back(line);
    ASSERT_EQ(records.front(), "davf-checkpoint v2");
    ASSERT_EQ(records.back(), "end");

    // Reverse every record between the config line and the end: each
    // cell's verdict now precedes its cycles, and cycles run backwards.
    std::string shuffled = records[0] + "\n" + records[1] + "\n";
    for (size_t i = records.size() - 2; i >= 2; --i)
        shuffled += records[i] + "\n";
    shuffled += "end\n";
    ASSERT_NE(shuffled, text);

    const Result<Checkpoint> parsed = parseCheckpoint(shuffled);
    ASSERT_TRUE(parsed.ok()) << parsed.error().what();
    // Cells keep first-appearance order; sorting them back into the
    // sample's order restores the canonical bytes.
    Checkpoint reordered = parsed.value();
    const Checkpoint sample = sampleCheckpoint();
    std::vector<CheckpointCell> cells;
    for (const CheckpointCell &want : sample.cells) {
        const CheckpointCell *have = reordered.find(want.key);
        ASSERT_NE(have, nullptr);
        cells.push_back(*have);
    }
    reordered.cells = std::move(cells);
    EXPECT_EQ(serializeCheckpoint(reordered), text);
}

TEST(CheckpointFormat, RejectsCorruptInput)
{
    const std::string head = "davf-checkpoint v2\nconfig abc\n";
    const std::string cycle = "cycle davf b s 0x1p-1 "
        + serializeOutcomeFields(sampleOutcome(17)) + "\n";
    EXPECT_TRUE(parseCheckpoint(head + cycle + "end\n").ok());

    EXPECT_FALSE(parseCheckpoint("").ok());
    EXPECT_FALSE(parseCheckpoint("davf-checkpoint v999\nend\n").ok());
    EXPECT_FALSE(parseCheckpoint(head).ok())
        << "truncated journal (no end record) must be rejected";
    EXPECT_FALSE(parseCheckpoint(head + "wat\nend\n").ok());
    EXPECT_FALSE(parseCheckpoint(head + "cell savf b s 0x0p+0 ok\nend\n")
                     .ok())
        << "sAVF cell with missing result fields must be rejected";
    EXPECT_FALSE(
        parseCheckpoint(head + "cell davf b s 0x1p-1 ok 0x1p-2\nend\n")
            .ok())
        << "a davf verdict carries no aggregate";
    EXPECT_FALSE(parseCheckpoint(head + cycle + cycle + "end\n").ok())
        << "a cycle journaled twice must be rejected";
    EXPECT_FALSE(parseCheckpoint(head + "cycle savf b s 0x0p+0 "
                                 + serializeOutcomeFields(sampleOutcome(17))
                                 + "\nend\n")
                     .ok())
        << "sAVF cells have no cycle records";
    EXPECT_FALSE(parseCheckpoint(head + cycle
                                 + "cell davf b s 0x1p-1 failed x\nend\n")
                     .ok())
        << "a failed cell journals no cycles";
    EXPECT_FALSE(parseCheckpoint(head + "cell davf b s 0x1p-1 ok\n"
                                 + "cell davf b s 0x1p-1 ok\nend\n")
                     .ok())
        << "one verdict per cell";
    EXPECT_FALSE(parseCheckpoint("davf-checkpoint v2\nend\n").ok())
        << "journal without a config record must be rejected";
}

TEST(CheckpointFormat, RefusesVersionOneJournalsNamingBothVersions)
{
    const Result<Checkpoint> parsed = parseCheckpoint(
        "davf-checkpoint v1\nconfig abc\n"
        "cell davf b s 0x1p-1 ok 0x0p+0\nend\n");
    ASSERT_FALSE(parsed.ok());
    const std::string message = parsed.error().what();
    EXPECT_NE(message.find("davf-checkpoint v2"), std::string::npos)
        << message;
    EXPECT_NE(message.find("davf-checkpoint v1"), std::string::npos)
        << message;
    CheckpointLoadStats stats;
    EXPECT_FALSE(parseCheckpoint("davf-checkpoint v1\nconfig abc\nend\n",
                                 &stats)
                     .ok())
        << "lenient loading does not relax the version gate";
}

TEST(CheckpointFormat, SaveLoadRoundTrips)
{
    const std::string path = tempPath("journal.ckpt");
    const Checkpoint before = sampleCheckpoint();
    saveCheckpoint(path, before);
    const Result<Checkpoint> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(serializeCheckpoint(loaded.value()),
              serializeCheckpoint(before));
    std::remove(path.c_str());

    EXPECT_FALSE(loadCheckpoint(tempPath("absent.ckpt")).ok());
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

TEST(Campaign, ResumeRejectsForeignJournal)
{
    CampaignFixture fixture;
    const std::string path = tempPath("foreign.ckpt");
    Checkpoint foreign;
    foreign.configHash = "0123456789abcdef"; // not this campaign's hash
    saveCheckpoint(path, foreign);

    CampaignOptions opts = fixture.options();
    opts.checkpointPath = path;
    opts.resume = true;
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    try {
        campaign.run();
        FAIL() << "expected DavfError";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::BadArgument);
    }
    std::remove(path.c_str());
}

TEST(Campaign, InterruptedResumeIsBitIdenticalAcrossThreadCounts)
{
    const std::string ref_ckpt = tempPath("ref.ckpt");
    const std::string ref_csv = tempPath("ref.csv");
    const std::string cut_ckpt = tempPath("cut.ckpt");
    const std::string cut_csv = tempPath("cut.csv");

    // Reference: uninterrupted, 1 thread.
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.sampling.threads = 1;
        opts.checkpointPath = ref_ckpt;
        opts.csvPath = ref_csv;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsComputed, 4u); // 3 delays + sAVF
        EXPECT_EQ(summary.cellsFailed, 0u);
    }

    // Interrupted mid-sweep: raise the stop flag after a few journal
    // writes (journal writes happen after every injection cycle, so
    // this lands inside a cell).
    std::atomic<bool> stop{false};
    uint64_t saves = 0;
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.sampling.threads = 2;
        opts.checkpointPath = cut_ckpt;
        opts.csvPath = cut_csv;
        opts.stopFlag = &stop;
        opts.onCheckpointSaved = [&] {
            if (++saves == 3)
                stop.store(true);
        };
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_TRUE(summary.interrupted);
        EXPECT_LT(summary.cellsComputed, 4u);
    }
    ASSERT_GE(saves, 3u);

    // Resume at a different thread count; result must be byte-identical
    // to the uninterrupted reference — journal and CSV.
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.sampling.threads = 3;
        opts.checkpointPath = cut_ckpt;
        opts.csvPath = cut_csv;
        opts.resume = true;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cells.size(), 4u);
        EXPECT_GT(summary.cellsFromCheckpoint
                      + summary.cellsComputed, 0u);
    }

    EXPECT_EQ(slurp(cut_ckpt), slurp(ref_ckpt));
    EXPECT_EQ(slurp(cut_csv), slurp(ref_csv));

    // Resuming a fully complete journal recomputes nothing.
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.checkpointPath = ref_ckpt;
        opts.resume = true;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_EQ(summary.cellsComputed, 0u);
        EXPECT_EQ(summary.cellsFromCheckpoint, 4u);
    }

    for (const auto &path : {ref_ckpt, ref_csv, cut_ckpt, cut_csv})
        std::remove(path.c_str());
}

/** The --json report of @p summary. */
std::string
reportOf(const CampaignSummary &summary)
{
    return reportJson(reportRows(summary, ""));
}

TEST(Campaign, ShuffledJournalWithTwoOpenCellsResumesCanonically)
{
    const std::string ref_ckpt = tempPath("open2_ref.ckpt");
    const std::string ref_csv = tempPath("open2_ref.csv");
    const std::string ckpt = tempPath("open2.ckpt");
    const std::string csv = tempPath("open2.csv");

    std::string ref_report;
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.sampling.cycleFraction = 1.0; // all maxInjectionCycles
        opts.sampling.threads = 1;
        opts.checkpointPath = ref_ckpt;
        opts.csvPath = ref_csv;
        ref_report = reportOf(
            Campaign(*fixture.engine, *fixture.registry, opts).run());
    }
    const std::string reference = slurp(ref_ckpt);

    // A journal no single run writes: two davf cells open at once (the
    // first two cycles of one, the last two of the other), no verdicts,
    // and records interleaved across cells and out of cycle order.
    std::string header;
    std::vector<std::string> low, mid;
    {
        std::istringstream is(reference);
        const std::string prefix = "cycle davf rndtrace Rnd ";
        for (std::string line; std::getline(is, line);) {
            if (line.rfind("davf-checkpoint ", 0) == 0
                || line.rfind("config ", 0) == 0)
                header += line + "\n";
            else if (line.rfind(prefix + canonicalDelay(0.3) + " ", 0) == 0)
                low.push_back(line);
            else if (line.rfind(prefix + canonicalDelay(0.6) + " ", 0) == 0)
                mid.push_back(line);
        }
    }
    ASSERT_GE(low.size(), 3u);
    ASSERT_GE(mid.size(), 3u);
    writeFileAtomic(ckpt, header + mid[mid.size() - 1] + "\n" + low[1]
                              + "\n" + mid[mid.size() - 2] + "\n"
                              + low[0] + "\nend\n");

    CampaignFixture fixture;
    CampaignOptions opts = fixture.options();
    opts.sampling.cycleFraction = 1.0;
    opts.sampling.threads = 3;
    opts.checkpointPath = ckpt;
    opts.csvPath = csv;
    opts.resume = true;
    const CampaignSummary summary =
        Campaign(*fixture.engine, *fixture.registry, opts).run();
    EXPECT_FALSE(summary.interrupted);
    EXPECT_EQ(summary.cellsComputed, 4u);
    EXPECT_EQ(reportOf(summary), ref_report);
    EXPECT_EQ(slurp(ckpt), reference);
    EXPECT_EQ(slurp(csv), slurp(ref_csv));

    for (const auto &path : {ref_ckpt, ref_csv, ckpt, csv})
        std::remove(path.c_str());
}

TEST(Campaign, ResumingACompleteJournalComputesNothing)
{
    const std::string ckpt = tempPath("complete.ckpt");
    std::string ref_report;
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.checkpointPath = ckpt;
        ref_report = reportOf(
            Campaign(*fixture.engine, *fixture.registry, opts).run());
    }
    const std::string reference = slurp(ckpt);

    CampaignFixture fixture;
    CampaignOptions opts = fixture.options();
    opts.checkpointPath = ckpt;
    opts.resume = true;
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::setEnabled(true);
    const CampaignSummary summary =
        Campaign(*fixture.engine, *fixture.registry, opts).run();
    obs::MetricsRegistry::setEnabled(false);
    const std::map<std::string, uint64_t> counters =
        obs::MetricsRegistry::instance().snapshot().counters;
    obs::MetricsRegistry::instance().reset();

    EXPECT_EQ(summary.cellsFromCheckpoint, summary.cells.size());
    EXPECT_EQ(summary.cells.size(), 4u);
    EXPECT_EQ(summary.cellsComputed, 0u);
    const auto computed = counters.find("engine.cycles_computed");
    EXPECT_EQ(computed == counters.end() ? 0u : computed->second, 0u);
    // The aggregates are derived from the journaled outcomes again.
    EXPECT_EQ(reportOf(summary), ref_report);
    EXPECT_EQ(slurp(ckpt), reference);
    std::remove(ckpt.c_str());
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

// --------------------------------------------- lenient checkpoint loading

TEST(CheckpointFormat, LenientLoadDropsTornFinalLine)
{
    const std::string text = serializeCheckpoint(sampleCheckpoint());
    // Tear the tail mid-record: drop "end\n" plus part of the final
    // cycle line, the shape a crashed copy or torn write leaves.
    const std::string torn = text.substr(0, text.size() - 12);

    EXPECT_FALSE(parseCheckpoint(torn).ok())
        << "strict parsing must still reject a torn journal";

    CheckpointLoadStats stats;
    const Result<Checkpoint> parsed = parseCheckpoint(torn, &stats);
    ASSERT_TRUE(parsed.ok()) << parsed.error().what();
    EXPECT_TRUE(stats.truncatedTail);
    EXPECT_FALSE(stats.droppedLine.empty());
    // Everything before the torn line survives; the torn line was the
    // last open cell's only cycle.
    EXPECT_EQ(parsed.value().configHash, "feedc0de");
    EXPECT_EQ(parsed.value().cells.size(), 4u);
}

TEST(CheckpointFormat, LenientLoadToleratesOnlyTheFinalLine)
{
    // A damaged line in the *middle* is corruption, not a torn write:
    // both strict and lenient parsing must reject it.
    std::string text = serializeCheckpoint(sampleCheckpoint());
    const size_t pos = text.find("\ncell ");
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos + 1, "cell davf broken\n");
    EXPECT_FALSE(parseCheckpoint(text).ok());
    CheckpointLoadStats stats;
    EXPECT_FALSE(parseCheckpoint(text, &stats).ok());
}

TEST(CheckpointFormat, LenientLoadReportsMissingEnd)
{
    std::string text = serializeCheckpoint(sampleCheckpoint());
    const size_t end_pos = text.rfind("end\n");
    ASSERT_NE(end_pos, std::string::npos);
    text.resize(end_pos); // intact records, missing end marker

    EXPECT_FALSE(parseCheckpoint(text).ok());
    CheckpointLoadStats stats;
    const Result<Checkpoint> parsed = parseCheckpoint(text, &stats);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(stats.missingEnd);
    EXPECT_FALSE(stats.truncatedTail);
    EXPECT_EQ(parsed.value().cells.size(), 5u);
}

TEST(CheckpointFormat, FuzzedInputNeverCrashesTheParser)
{
    const std::string text = serializeCheckpoint(sampleCheckpoint());

    // Every truncation point, strict and lenient: the parser must
    // return a Result either way, never crash or throw.
    for (size_t n = 0; n <= text.size(); ++n) {
        const std::string prefix = text.substr(0, n);
        (void)parseCheckpoint(prefix);
        CheckpointLoadStats stats;
        (void)parseCheckpoint(prefix, &stats);
    }

    // Deterministic byte mutations (flips, splices, truncations).
    Rng rng(0xfadedfacade);
    for (int round = 0; round < 400; ++round) {
        std::string mutated = text;
        const unsigned edits = 1 + unsigned(rng.below(4));
        for (unsigned e = 0; e < edits; ++e) {
            const size_t pos = size_t(rng.below(mutated.size()));
            switch (rng.below(3)) {
              case 0:
                mutated[pos] = char(rng.below(256));
                break;
              case 1:
                mutated.insert(pos, 1, char(rng.below(256)));
                break;
              default:
                mutated.erase(pos, 1 + size_t(rng.below(8)));
                break;
            }
            if (mutated.empty())
                mutated.push_back('x');
        }
        (void)parseCheckpoint(mutated);
        CheckpointLoadStats stats;
        (void)parseCheckpoint(mutated, &stats);
    }
}

TEST(Campaign, ResumeSurvivesTornFinalJournalLine)
{
    const std::string ref_ckpt = tempPath("torn_ref.ckpt");
    const std::string ckpt = tempPath("torn.ckpt");

    // Reference: a complete sweep.
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.checkpointPath = ref_ckpt;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
    }

    // The same journal with its tail torn mid-line.
    const std::string reference = slurp(ref_ckpt);
    const size_t end_pos = reference.rfind("end\n");
    ASSERT_NE(end_pos, std::string::npos);
    ASSERT_GT(end_pos, 8u);
    writeFileAtomic(ckpt, reference.substr(0, end_pos - 7));

    EXPECT_FALSE(loadCheckpoint(ckpt).ok());
    CheckpointLoadStats stats;
    EXPECT_TRUE(loadCheckpoint(ckpt, &stats).ok());
    EXPECT_TRUE(stats.truncatedTail);

    // Resume recomputes only the lost record; the final journal is
    // byte-identical to the uninterrupted reference.
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.checkpointPath = ckpt;
        opts.resume = true;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_GT(summary.cellsComputed, 0u);
        EXPECT_GT(summary.cellsFromCheckpoint, 0u);
    }
    EXPECT_EQ(slurp(ckpt), reference);

    for (const auto &path : {ref_ckpt, ckpt})
        std::remove(path.c_str());
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
    const std::string thread_ckpt = tempPath("iso_thread.ckpt");
    const std::string thread_csv = tempPath("iso_thread.csv");

    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.checkpointPath = thread_ckpt;
        opts.csvPath = thread_csv;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
    }
    const std::string ref_journal = slurp(thread_ckpt);
    const std::string ref_csv = slurp(thread_csv);

    // Process isolation at two different worker counts: journal and
    // CSV must match thread mode byte for byte.
    for (unsigned workers : {1u, 3u}) {
        const std::string tag = std::to_string(workers);
        const std::string ckpt = tempPath("iso_proc" + tag + ".ckpt");
        const std::string csv = tempPath("iso_proc" + tag + ".csv");
        CampaignFixture fixture;
        CampaignOptions opts = processOptions(fixture, workers);
        opts.checkpointPath = ckpt;
        opts.csvPath = csv;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
        EXPECT_TRUE(summary.quarantined.empty());
        EXPECT_EQ(slurp(ckpt), ref_journal) << workers << " workers";
        EXPECT_EQ(slurp(csv), ref_csv) << workers << " workers";
        std::remove(ckpt.c_str());
        std::remove(csv.c_str());
    }

    std::remove(thread_ckpt.c_str());
    std::remove(thread_csv.c_str());
}

TEST(Campaign, LaneWidthIsBitIdenticalAcrossIsolation)
{
    // The engine's lane width is a speed knob: a campaign over an
    // engine that batches one continuation and one cone at a time must
    // produce the same journal and CSV bytes as the default run, in
    // thread mode and under process isolation — so supervised fleets
    // may mix engines of any width.
    const std::string ref_ckpt = tempPath("tsim_ref.ckpt");
    const std::string ref_csv = tempPath("tsim_ref.csv");
    {
        CampaignFixture fixture;
        CampaignOptions opts = fixture.options();
        opts.checkpointPath = ref_ckpt;
        opts.csvPath = ref_csv;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        EXPECT_FALSE(campaign.run().interrupted);
    }
    const std::string ref_journal = slurp(ref_ckpt);
    const std::string ref_csv_bytes = slurp(ref_csv);
    std::remove(ref_ckpt.c_str());
    std::remove(ref_csv.c_str());

    {
        const std::string ckpt = tempPath("tsim_narrow.ckpt");
        const std::string csv = tempPath("tsim_narrow.csv");
        CampaignFixture fixture(11, 2);
        CampaignOptions opts = fixture.options();
        opts.checkpointPath = ckpt;
        opts.csvPath = csv;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        EXPECT_FALSE(campaign.run().interrupted);
        EXPECT_EQ(slurp(ckpt), ref_journal) << "thread mode";
        EXPECT_EQ(slurp(csv), ref_csv_bytes) << "thread mode";
        std::remove(ckpt.c_str());
        std::remove(csv.c_str());
    }

    {
        // A narrow supervisor engine driving default-width workers:
        // the two widths mix freely within one campaign.
        const std::string ckpt = tempPath("tsim_proc.ckpt");
        const std::string csv = tempPath("tsim_proc.csv");
        CampaignFixture fixture(11, 3);
        CampaignOptions opts = processOptions(fixture, 2);
        opts.checkpointPath = ckpt;
        opts.csvPath = csv;
        Campaign campaign(*fixture.engine, *fixture.registry, opts);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
        EXPECT_EQ(slurp(ckpt), ref_journal) << "process mode";
        EXPECT_EQ(slurp(csv), ref_csv_bytes) << "process mode";
        std::remove(ckpt.c_str());
        std::remove(csv.c_str());
    }
}

TEST(Campaign, WorkerCrashIsRetriedBisectedAndQuarantined)
{
    const std::string qdir = tempPath("crash_qdir");
    const std::string metrics = tempPath("crash_metrics.csv");
    const std::string ckpt = tempPath("crash.ckpt");
    const std::string ckpt2 = tempPath("crash2.ckpt");
    std::filesystem::remove_all(qdir);
    std::remove(metrics.c_str());

    CampaignFixture fixture;
    CampaignOptions opts = processOptions(fixture, 2);
    opts.delays = {0.6};
    opts.runSavf = false;
    opts.supervisor.maxRetries = 1;
    opts.supervisor.quarantineDir = qdir;
    opts.supervisor.metricsCsvPath = metrics;
    opts.checkpointPath = ckpt;

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

    // Workers died with SIGABRT mid-shard, but the journal (written
    // only by the supervisor process) stays strictly parseable.
    ASSERT_TRUE(loadCheckpoint(ckpt).ok());

    // Per-attempt metrics recorded crashes and successes.
    const std::string csv = slurp(metrics);
    EXPECT_NE(csv.find("outcome,wall_ms,max_rss_kb"), std::string::npos);
    EXPECT_NE(csv.find(",crash,"), std::string::npos);
    EXPECT_NE(csv.find(",ok,"), std::string::npos);

    // Convergence: with the fault disarmed but the quarantine records
    // kept, a fresh campaign reproduces the exact same journal without
    // a single crash (the known-bad injection stays excluded).
    {
        CampaignFixture fixture2;
        CampaignOptions opts2 = processOptions(fixture2, 2);
        opts2.delays = {0.6};
        opts2.runSavf = false;
        opts2.supervisor.quarantineDir = qdir;
        opts2.checkpointPath = ckpt2;
        Campaign campaign(*fixture2.engine, *fixture2.registry, opts2);
        const CampaignSummary summary = campaign.run();
        EXPECT_FALSE(summary.interrupted);
        EXPECT_TRUE(summary.quarantined.empty())
            << "no new quarantines expected";
    }
    EXPECT_EQ(slurp(ckpt2), slurp(ckpt));

    std::filesystem::remove_all(qdir);
    for (const auto &path : {metrics, ckpt, ckpt2})
        std::remove(path.c_str());
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
    const std::string ckpt = tempPath("nostart.ckpt");
    std::filesystem::remove_all(qdir);
    std::remove(ckpt.c_str());

    CampaignFixture fixture;
    CampaignOptions opts = processOptions(fixture, 1);
    opts.supervisor.workerArgv = {"/bin/false"};
    opts.delays = {0.6};
    opts.runSavf = false;
    opts.supervisor.maxRetries = 1;
    opts.supervisor.quarantineDir = qdir;
    opts.checkpointPath = ckpt;
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

    // The journaled reason names the failure, not the source file that
    // raised it: journals must not depend on the build directory.
    const Result<Checkpoint> journal = loadCheckpoint(ckpt);
    ASSERT_TRUE(journal.ok()) << journal.error().what();
    ASSERT_EQ(journal.value().cells.size(), 1u);
    EXPECT_EQ(journal.value().cells[0].state,
              CheckpointCell::State::Failed);
    EXPECT_NE(journal.value().cells[0].failReason.find(
                  "campaign worker failed to start"),
              std::string::npos);
    EXPECT_EQ(journal.value().cells[0].failReason.find(".cc:"),
              std::string::npos)
        << journal.value().cells[0].failReason;
    std::remove(ckpt.c_str());
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
