/**
 * @file
 * Tests for the crash-point injection layer (util/crashpoint.hh) and
 * the recovery properties it exists to prove:
 *
 *  - spec parsing (lenient: malformed input arms nothing);
 *  - one-shot firing, throw/enospc as catchable DavfError{Io};
 *  - atomic-file damage contracts: enospc leaves the old contents,
 *    torn publishes a deterministic truncated prefix, garble a
 *    deterministic bit-flip (gtest death tests — the point SIGKILLs);
 *  - result-store publish failures are non-fatal and counted, and
 *    damaged records are misses that get repaired;
 *  - quarantine records: save-point kills never leave a torn file and
 *    torn files never break loading;
 *  - the recovery matrix: every registered crash point x
 *    {kill, torn, enospc} against a campaign whose progress lives in a
 *    result store, a store round-trip, and fsck/compact of a damaged
 *    store — after recovery (a rerun over the same store) the
 *    surviving artifacts are byte-identical to an undisturbed run.
 *
 * Kill-action matrix cases re-execute this binary (--crash-child=...)
 * so the SIGKILL lands in a scratch process, which is why this test
 * has its own main() instead of linking gtest_main.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "src/campaign/campaign.hh"
#include "src/campaign/supervisor.hh"
#include "src/service/result_store.hh"
#include "src/service/scheduler.hh"
#include "src/store/index_fsck.hh"
#include "src/store/index_store.hh"
#include "src/store/layout.hh"
#include "src/util/atomic_file.hh"
#include "src/util/crashpoint.hh"
#include "src/util/error.hh"
#include "src/util/subprocess.hh"
#include "tests/helpers.hh"

namespace davf {
namespace {

namespace fs = std::filesystem;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "davf_crash_"
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

/** Raw (non-atomic) write, for crafting damaged fixtures. */
void
writeRaw(const std::string &path, const std::string &contents)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(static_cast<bool>(file)) << path;
    file << contents;
    ASSERT_TRUE(static_cast<bool>(file)) << path;
}

/** Arms a spec for the enclosing scope; disarms on exit. */
struct ArmGuard
{
    explicit ArmGuard(const std::string &spec)
    {
        crashpoint::arm(crashpoint::parseSpec(spec.c_str()));
    }
    ~ArmGuard() { crashpoint::disarm(); }
};

// ------------------------------------------------------------ spec parsing

TEST(CrashSpec, ParsesPointActionAndHitCount)
{
    crashpoint::Spec spec =
        crashpoint::parseSpec("quarantine.save=kill");
    EXPECT_EQ(spec.point, "quarantine.save");
    EXPECT_EQ(spec.hitCount, 1u);
    EXPECT_EQ(spec.action, crashpoint::Action::Kill);

    spec = crashpoint::parseSpec("atomic_file.write:7=torn");
    EXPECT_EQ(spec.point, "atomic_file.write");
    EXPECT_EQ(spec.hitCount, 7u);
    EXPECT_EQ(spec.action, crashpoint::Action::Torn);

    spec = crashpoint::parseSpec("store.publish=enospc");
    EXPECT_EQ(spec.action, crashpoint::Action::Enospc);
    spec = crashpoint::parseSpec("store.publish=throw");
    EXPECT_EQ(spec.action, crashpoint::Action::Throw);
    spec = crashpoint::parseSpec("store.publish=garble");
    EXPECT_EQ(spec.action, crashpoint::Action::Garble);
}

TEST(CrashSpec, MalformedInputArmsNothing)
{
    // Like DAVF_TEST_NETFAULT: the hook must never break a real run,
    // so everything malformed degrades to "unarmed".
    const char *bad[] = {
        nullptr,
        "",
        "quarantine.save",        // no action
        "=kill",                  // no point
        "quarantine.save=",       // empty action
        "quarantine.save=explode",
        "quarantine.save:0=kill", // hit counts are 1-based
        "quarantine.save:x=kill",
        "no.such.point=kill",     // unknown name warns, arms nothing
    };
    for (const char *text : bad) {
        const crashpoint::Spec spec = crashpoint::parseSpec(text);
        EXPECT_EQ(spec.action, crashpoint::Action::None)
            << (text ? text : "<null>");
        EXPECT_TRUE(spec.point.empty()) << (text ? text : "<null>");
    }
}

TEST(CrashSpec, KnownPointsAreSortedAndRoundTrip)
{
    const std::vector<std::string> &points = crashpoint::knownPoints();
    ASSERT_FALSE(points.empty());
    EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
    // Every registered point must parse back as a valid spec target.
    for (const std::string &point : points) {
        const crashpoint::Spec spec =
            crashpoint::parseSpec((point + "=kill").c_str());
        EXPECT_EQ(spec.point, point);
    }
}

TEST(CrashSpec, DamageOffsetIsMidPayload)
{
    EXPECT_EQ(crashpoint::damageOffset(0), 0u);
    EXPECT_EQ(crashpoint::damageOffset(1), 0u);
    for (size_t size : {2u, 3u, 100u, 4097u}) {
        const size_t offset = crashpoint::damageOffset(size);
        EXPECT_GT(offset, 0u) << size;
        EXPECT_LT(offset, size) << size;
        // Deterministic: the recovery matrix depends on it.
        EXPECT_EQ(offset, crashpoint::damageOffset(size)) << size;
    }
}

// ------------------------------------------------------- one-shot semantics

TEST(CrashPointFire, ThrowIsCatchableAndFiresExactlyOnce)
{
    const std::string path = tempPath("oneshot.txt");

    ArmGuard armed("atomic_file.pre_tmp_write=throw");
    try {
        writeFileAtomic(path, "first");
        FAIL() << "armed point did not fire";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::Io);
        EXPECT_NE(std::string(error.what())
                      .find("atomic_file.pre_tmp_write"),
                  std::string::npos)
            << error.what();
    }
    // Latched: the same point never fires twice in one process.
    writeFileAtomic(path, "second");
    EXPECT_EQ(slurp(path), "second");
    std::remove(path.c_str());
}

TEST(CrashPointFire, HitCountDelaysTheFire)
{
    const std::string path = tempPath("hitcount.txt");

    ArmGuard armed("atomic_file.pre_tmp_write:3=throw");
    writeFileAtomic(path, "1"); // hit 1
    writeFileAtomic(path, "2"); // hit 2
    EXPECT_THROW(writeFileAtomic(path, "3"), DavfError); // hit 3
    writeFileAtomic(path, "4"); // latched off again
    EXPECT_EQ(slurp(path), "4");
    std::remove(path.c_str());
}

// -------------------------------------------------- atomic-file damage modes

TEST(AtomicFileCrash, EnospcLeavesOldContentsAndNoTemporary)
{
    const std::string path = tempPath("enospc.txt");
    writeFileAtomic(path, "old contents");

    ArmGuard armed("atomic_file.write=enospc");
    try {
        writeFileAtomic(path, "new contents that never land");
        FAIL() << "enospc did not fire";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::Io);
        EXPECT_NE(std::string(error.what()).find("no space left"),
                  std::string::npos)
            << error.what();
    }
    // The reader-visible file is untouched and no temporary leaks.
    EXPECT_EQ(slurp(path), "old contents");
    std::ifstream tmp(path + ".tmp." + std::to_string(::getpid()));
    EXPECT_FALSE(static_cast<bool>(tmp));

    // Retry (point latched) succeeds.
    writeFileAtomic(path, "new contents");
    EXPECT_EQ(slurp(path), "new contents");
    std::remove(path.c_str());
}

TEST(AtomicFileCrash, TornPublishesExactlyTheTruncatedPrefix)
{
    const std::string path = tempPath("torn.txt");
    const std::string payload = "0123456789abcdefghij";
    writeFileAtomic(path, "old contents");

    ArmGuard armed("atomic_file.write=torn");
    EXPECT_EXIT(writeFileAtomic(path, payload),
                ::testing::KilledBySignal(SIGKILL),
                "crashpoint: killing at 'atomic_file.write'");

    // The damage is published (the whole point: it must be
    // distinguishable from a clean pre-write kill) and deterministic.
    EXPECT_EQ(slurp(path),
              payload.substr(0, crashpoint::damageOffset(payload.size())));
    std::remove(path.c_str());
}

TEST(AtomicFileCrash, GarblePublishesASingleFlippedByte)
{
    const std::string path = tempPath("garble.txt");
    const std::string payload = "0123456789abcdefghij";

    ArmGuard armed("atomic_file.write=garble");
    EXPECT_EXIT(writeFileAtomic(path, payload),
                ::testing::KilledBySignal(SIGKILL),
                "crashpoint: killing at 'atomic_file.write'");

    std::string expected = payload;
    expected[crashpoint::damageOffset(payload.size())] ^= 0x40;
    EXPECT_EQ(slurp(path), expected);
    std::remove(path.c_str());
}

TEST(AtomicFileCrash, KillBeforeRenameNeverExposesThePartialFile)
{
    const std::string path = tempPath("prerename.txt");
    writeFileAtomic(path, "old contents");

    ArmGuard armed("atomic_file.pre_rename=kill");
    EXPECT_EXIT(writeFileAtomic(path, "never published"),
                ::testing::KilledBySignal(SIGKILL),
                "crashpoint: killing at 'atomic_file.pre_rename'");

    // Readers still see the old contents; the stale temporary is the
    // orphan that fsck cleans up.
    EXPECT_EQ(slurp(path), "old contents");
    std::remove(path.c_str());
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(::testing::TempDir(), ec)) {
        const std::string name = entry.path().filename().string();
        if (name.find("prerename.txt.tmp.") != std::string::npos)
            fs::remove(entry.path(), ec);
    }
}

// ----------------------------------------------------------- result store

/** Flip one byte inside @p key's record in the store's segment file. */
void
garbleRecord(const std::string &dir, const std::string &key)
{
    const std::string path = dir + "/" + store::kDataFileName;
    std::string bytes = slurp(path);
    const size_t pos = bytes.find("key " + key + "\npayload ");
    ASSERT_NE(pos, std::string::npos) << key;
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(pos + key.size() + 14));
    file.put(static_cast<char>(bytes[pos + key.size() + 14] ^ 0x20));
    ASSERT_TRUE(static_cast<bool>(file)) << path;
}

TEST(StoreCrash, PublishFailureIsNonFatalAndCounted)
{
    const std::string dir = tempPath("store_pubfail");
    fs::remove_all(dir);
    service::ResultStore store({dir, 8});

    ArmGuard armed("store.publish=throw");
    store.store("k1", "payload-1"); // must not throw
    service::StoreStats stats = store.stats();
    EXPECT_EQ(stats.writeFailures, 1u);
    EXPECT_EQ(stats.writes, 0u);
    // The memory tier still serves the result...
    EXPECT_EQ(store.lookup("k1").value_or(""), "payload-1");
    // ...but nothing reached disk.
    EXPECT_EQ(store.indexStats()->appends, 0u);

    // The next publish (point latched) lands on disk.
    store.store("k2", "payload-2");
    stats = store.stats();
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(store.indexStats()->appends, 1u);
    fs::remove_all(dir);
}

TEST(StoreCrash, EnospcMidRecordIsAMissNextTimeNotACrash)
{
    const std::string dir = tempPath("store_enospc");
    fs::remove_all(dir);
    {
        service::ResultStore store({dir, 8});
        ArmGuard armed("index.append=enospc");
        store.store("k1", "payload-1"); // swallowed, counted
        EXPECT_EQ(store.stats().writeFailures, 1u);
    }
    // A fresh store (cold memory tier) sees a plain miss, then the
    // rewrite repairs the record.
    service::ResultStore store({dir, 8});
    EXPECT_FALSE(store.lookup("k1").has_value());
    EXPECT_EQ(store.stats().corruptRecords, 0u);
    store.store("k1", "payload-1");
    EXPECT_EQ(store.stats().writes, 1u);
    {
        // A second opener reads the owner's published record.
        service::ResultStore reread({dir, 8});
        EXPECT_EQ(reread.lookup("k1").value_or(""), "payload-1");
    }
    fs::remove_all(dir);
}

TEST(StoreCrash, GarbledRecordIsAMissAndDropsItsSlot)
{
    const std::string dir = tempPath("store_garble");
    fs::remove_all(dir);
    {
        service::ResultStore store({dir, 8});
        store.store("k1", "payload-1");
        store.store("k2", "payload-2");
    }
    // Flip one payload byte in place: the checksum must catch it.
    garbleRecord(dir, "k1");

    service::ResultStore store({dir, 8});
    EXPECT_FALSE(store.lookup("k1").has_value());
    service::StoreStats stats = store.stats();
    EXPECT_EQ(stats.corruptRecords, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(store.indexStats()->keys, 1u)
        << "the owner drops the damaged record's slot";
    // The next lookup is a plain miss, not a second corrupt read.
    EXPECT_FALSE(store.lookup("k1").has_value());
    EXPECT_EQ(store.stats().corruptRecords, 1u);
    EXPECT_EQ(store.lookup("k2").value_or(""), "payload-2");
    fs::remove_all(dir);
}

// ------------------------------------------------------- quarantine records

QuarantineRecord
sampleQuarantine(double delay)
{
    QuarantineRecord record;
    record.configHash = "feedc0de";
    record.benchmark = "md5";
    record.structure = "ALU";
    record.delayFraction = delay;
    record.cycle = 42;
    record.wireIndex = 3;
    record.wire = 77;
    record.seed = 5;
    record.reason = "killed by signal 6 (Aborted)";
    return record;
}

TEST(QuarantineCrash, KillAtSavePointNeverLeavesATornRecord)
{
    const std::string dir = tempPath("qdir_kill");
    fs::remove_all(dir);
    saveQuarantineRecord(dir, sampleQuarantine(0.5));

    ArmGuard armed("quarantine.save=kill");
    EXPECT_EXIT(saveQuarantineRecord(dir, sampleQuarantine(0.7)),
                ::testing::KilledBySignal(SIGKILL),
                "crashpoint: killing at 'quarantine.save'");

    // The pre-existing record survives; the killed one is wholly
    // absent (the point fires before any bytes move).
    const std::vector<QuarantineRecord> loaded =
        loadQuarantineRecords(dir);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0], sampleQuarantine(0.5));
    fs::remove_all(dir);
}

TEST(QuarantineCrash, SaveFailureThrowsIoAndLeavesDirLoadable)
{
    const std::string dir = tempPath("qdir_throw");
    fs::remove_all(dir);
    saveQuarantineRecord(dir, sampleQuarantine(0.5));

    {
        ArmGuard armed("quarantine.save=enospc");
        EXPECT_THROW(saveQuarantineRecord(dir, sampleQuarantine(0.7)),
                     DavfError);
    }
    EXPECT_EQ(loadQuarantineRecords(dir).size(), 1u);
    saveQuarantineRecord(dir, sampleQuarantine(0.7));
    EXPECT_EQ(loadQuarantineRecords(dir).size(), 2u);
    fs::remove_all(dir);
}

TEST(QuarantineCrash, TornRecordFileIsSkippedNotFatal)
{
    const std::string dir = tempPath("qdir_torn");
    fs::remove_all(dir);
    saveQuarantineRecord(dir, sampleQuarantine(0.5));

    // A torn copy and an empty file, the shapes a crashed writer (on a
    // filesystem without the rename guarantee) can leave behind.
    const std::string line =
        serializeQuarantineRecord(sampleQuarantine(0.7));
    writeRaw(dir + "/torn.q", line.substr(0, line.size() / 2));
    writeRaw(dir + "/empty.q", "");

    const std::vector<QuarantineRecord> loaded =
        loadQuarantineRecords(dir);
    ASSERT_EQ(loaded.size(), 1u) << "damaged records must be skipped";
    EXPECT_EQ(loaded[0], sampleQuarantine(0.5));
    fs::remove_all(dir);
}

// ---------------------------------------------------------- fsck / compact

/**
 * A store directory with one of each kind of damage compact repairs:
 *  - valid records for "alpha" and "delta";
 *  - a superseded frame for "gamma" (rewritten since);
 *  - a garbled frame for "beta";
 *  - a torn segment tail (the last frame, "zeta", cut short);
 *  - a legacy per-file record for "epsilon" and a foreign file.
 */
void
makeDamagedStore(const std::string &dir)
{
    fs::remove_all(dir);
    {
        store::IndexStore index({.dir = dir});
        index.put("alpha", "p-alpha");
        index.put("beta", "p-beta");
        index.put("gamma", "p-gamma-stale");
        index.put("gamma", "p-gamma");
        index.put("delta", "p-delta");
        index.put("zeta", "p-zeta");
    }
    garbleRecord(dir, "beta");
    const std::string segments = dir + "/" + store::kDataFileName;
    fs::resize_file(segments, fs::file_size(segments) - 8);
    writeRaw(dir + "/" + store::legacyRecordFileName("epsilon"),
             store::serializeRecordText("epsilon", "p-epsilon"));
    writeRaw(dir + "/README", "not a record");
}

// --------------------------------------------------------- recovery matrix

/** The campaign fixture every matrix child rebuilds identically. */
struct MatrixFixture
{
    test::RandomCircuit circuit;
    std::unique_ptr<VulnerabilityEngine> engine;
    std::unique_ptr<StructureRegistry> registry;

    MatrixFixture() : circuit(test::makeRandomCircuit(7, 6, 30, 10))
    {
        engine = std::make_unique<VulnerabilityEngine>(
            *circuit.netlist, CellLibrary::defaultLibrary(),
            *circuit.workload);
        registry = std::make_unique<StructureRegistry>(*circuit.netlist);
        registry->add("Rnd", "rnd/");
    }

    CampaignOptions options() const
    {
        CampaignOptions opts;
        opts.benchmark = "rndtrace";
        opts.structures = {"Rnd"};
        opts.delays = {0.35, 0.7};
        opts.runSavf = true;
        opts.sampling.maxInjectionCycles = 3;
        opts.sampling.maxWires = 16;
        opts.sampling.maxFlops = 6;
        opts.sampling.seed = 9;
        opts.sampling.threads = 1;
        return opts;
    }
};

/** Keys/payloads the store matrix child publishes. */
std::vector<std::pair<std::string, std::string>>
matrixStoreRecords()
{
    std::vector<std::pair<std::string, std::string>> records;
    for (int i = 0; i < 4; ++i) {
        records.emplace_back("key-" + std::to_string(i),
                             "0x1.8p-" + std::to_string(i + 1)
                                 + " payload " + std::to_string(i));
    }
    return records;
}

/** Spawn this binary as a matrix child; returns its exit status. */
ExitStatus
runChild(const std::vector<std::string> &args)
{
    Subprocess child;
    std::vector<std::string> argv = {Subprocess::selfExePath()};
    argv.insert(argv.end(), args.begin(), args.end());
    child.spawn(argv);
    // The children talk only via the filesystem and their exit status.
    child.closeWrite();
    return child.wait();
}

TEST(CrashMatrix, CampaignRecoversByteIdenticalFromEveryPoint)
{
    const std::string ref_dir = tempPath("matrix_ref");
    const std::string ref_csv = tempPath("matrix_ref.csv");
    fs::remove_all(ref_dir);

    // The undisturbed reference, produced by the same child code path.
    ExitStatus ref = runChild({"--crash-child=campaign",
                               "--dir=" + ref_dir, "--csv=" + ref_csv});
    ASSERT_TRUE(ref.exited && ref.code == 0) << ref.describe();
    const std::string ref_report = slurp(ref_csv);
    ASSERT_FALSE(ref_report.empty());

    // Every registered point x {kill, torn, enospc}. Points a campaign
    // over a result store never reaches must be harmless to arm: the
    // run completes undisturbed. Points it does reach must be
    // survivable: a rerun over the same store completes, its CSV is
    // byte-identical to the reference, and the store checks clean.
    for (const std::string &point : crashpoint::knownPoints()) {
        for (const char *action : {"kill", "torn", "enospc"}) {
            SCOPED_TRACE(point + "=" + action);
            const std::string tag = point + "." + action;
            const std::string dir = tempPath("m_" + tag);
            const std::string csv = tempPath("m_" + tag + ".csv");
            fs::remove_all(dir);
            std::remove(csv.c_str());

            ExitStatus hit = runChild({"--crash-child=campaign",
                                       "--spec=" + point + "=" + action,
                                       "--dir=" + dir, "--csv=" + csv});
            if (!(hit.exited && hit.code == 0)) {
                // The point fired: a fresh process rerun over the
                // store must recover from whatever the crash left.
                const ExitStatus status = runChild(
                    {"--crash-child=campaign", "--dir=" + dir,
                     "--csv=" + csv});
                EXPECT_TRUE(status.exited && status.code == 0)
                    << status.describe();
            }
            EXPECT_EQ(slurp(csv), ref_report);
            EXPECT_TRUE(store::fsckIndexStore(dir).clean());
            fs::remove_all(dir);
            std::remove(csv.c_str());
        }
    }
    fs::remove_all(ref_dir);
    std::remove(ref_csv.c_str());
}

TEST(CrashMatrix, LateHitCountCrashesMidSweepAndStillRecovers)
{
    const std::string ref_dir = tempPath("late_ref");
    const std::string ref_csv = tempPath("late_ref.csv");
    fs::remove_all(ref_dir);
    ExitStatus ref = runChild({"--crash-child=campaign",
                               "--dir=" + ref_dir, "--csv=" + ref_csv});
    ASSERT_TRUE(ref.exited && ref.code == 0) << ref.describe();

    // Crashes landing mid-sweep (not on the first write) leave a store
    // holding some cycles of the sweep — the interesting rerun shape.
    for (const char *spec :
         {"index.append:2=kill", "atomic_file.write:3=torn"}) {
        SCOPED_TRACE(spec);
        const std::string dir = tempPath(std::string("late_") + spec);
        const std::string csv = dir + ".csv";
        fs::remove_all(dir);
        std::remove(csv.c_str());

        ExitStatus hit = runChild({"--crash-child=campaign",
                                   std::string("--spec=") + spec,
                                   "--dir=" + dir, "--csv=" + csv});
        EXPECT_TRUE(hit.signaled && hit.signal == SIGKILL)
            << hit.describe();
        const std::string segments = dir + "/" + store::kDataFileName;
        ASSERT_TRUE(fs::exists(segments) && fs::file_size(segments) > 0)
            << "no stored cycle to continue from";

        const ExitStatus status = runChild(
            {"--crash-child=campaign", "--dir=" + dir, "--csv=" + csv});
        EXPECT_TRUE(status.exited && status.code == 0)
            << status.describe();
        EXPECT_EQ(slurp(csv), slurp(ref_csv));
        EXPECT_TRUE(store::fsckIndexStore(dir).clean());
        fs::remove_all(dir);
        std::remove(csv.c_str());
    }
    fs::remove_all(ref_dir);
    std::remove(ref_csv.c_str());
}

TEST(CrashMatrix, StoreRoundTripRecoversFromEveryPublishFault)
{
    const auto records = matrixStoreRecords();

    // Points a store open + record publish + close passes through.
    const char *points[] = {"store.publish", "index.append"};
    for (const char *point : points) {
        for (const char *action : {"kill", "torn", "enospc", "garble"}) {
            SCOPED_TRACE(std::string(point) + "=" + action);
            const std::string dir =
                tempPath(std::string("mstore_") + point + "_" + action);
            fs::remove_all(dir);

            ExitStatus hit = runChild(
                {"--crash-child=store",
                 std::string("--spec=") + point + "=" + action,
                 "--dir=" + dir});
            if (!(hit.exited && hit.code == 0)) {
                // Recovery discipline: fsck --repair, then republish.
                const store::IndexFsckReport report =
                    store::fsckIndexStore(dir, {.repair = true});
                EXPECT_TRUE(report.clean());
                const ExitStatus status =
                    runChild({"--crash-child=store", "--dir=" + dir});
                EXPECT_TRUE(status.exited && status.code == 0)
                    << status.describe();
            }

            // Byte-identical round trip: every record is served with
            // exactly the payload an undisturbed run would have written.
            {
                service::ResultStore store({dir, 0});
                for (const auto &[key, payload] : records)
                    EXPECT_EQ(store.lookup(key).value_or(""), payload);
                EXPECT_EQ(store.stats().corruptRecords, 0u);
            }
            EXPECT_TRUE(store::fsckIndexStore(dir).clean());
            fs::remove_all(dir);
        }
    }
}

TEST(CrashMatrix, FsckAndCompactRecoverFromTheirOwnCrashPoints)
{
    // Reference: what an undisturbed compact leaves behind.
    const std::string ref_dir = tempPath("mfsck_ref");
    makeDamagedStore(ref_dir);
    ASSERT_TRUE(store::compactIndexStoreDir(ref_dir).clean());
    std::map<std::string, std::string> ref_files;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(ref_dir)) {
        if (entry.is_regular_file()) {
            const std::string rel =
                fs::relative(entry.path(), ref_dir).string();
            ref_files[rel] = slurp(entry.path().string());
        }
    }
    ASSERT_FALSE(ref_files.empty());
    {
        service::ResultStore store({ref_dir, 0});
        for (const char *key : {"alpha", "gamma", "delta", "epsilon"})
            EXPECT_EQ(store.lookup(key).value_or(""),
                      std::string("p-") + key);
    }

    for (const char *point : {"fsck.repair", "compact.rewrite"}) {
        for (const char *action : {"kill", "torn", "enospc", "throw"}) {
            SCOPED_TRACE(std::string(point) + "=" + action);
            const std::string dir =
                tempPath(std::string("mfsck_") + point + "_" + action);
            makeDamagedStore(dir);

            ExitStatus hit = runChild(
                {"--crash-child=fsck",
                 std::string("--spec=") + point + "=" + action,
                 "--dir=" + dir});
            // Both points sit on reachable repair work, so every
            // action must have disturbed the run...
            EXPECT_FALSE(hit.exited && hit.code == 0)
                << hit.describe();
            // ...and whatever it did, a rerun must converge to the
            // reference state, file for file, byte for byte.
            const ExitStatus status =
                runChild({"--crash-child=fsck", "--dir=" + dir});
            EXPECT_TRUE(status.exited && status.code == 0)
                << status.describe();

            std::map<std::string, std::string> files;
            for (const fs::directory_entry &entry :
                 fs::recursive_directory_iterator(dir)) {
                if (entry.is_regular_file()) {
                    const std::string rel =
                        fs::relative(entry.path(), dir).string();
                    files[rel] = slurp(entry.path().string());
                }
            }
            EXPECT_EQ(files, ref_files);
            fs::remove_all(dir);
        }
    }
    fs::remove_all(ref_dir);
}

TEST(CrashMatrix, EnvironmentVariableArmsBeforeMain)
{
    // The end-to-end arming path users and CI drive: the spec rides in
    // via DAVF_TEST_CRASHPOINT and must be armed by the time the first
    // persistence call happens — no in-process arm() involved.
    const std::string dir = tempPath("env_arm");
    const std::string csv = tempPath("env_arm.csv");
    fs::remove_all(dir);
    std::remove(csv.c_str());

    Subprocess child;
    child.spawn({"/usr/bin/env",
                 "DAVF_TEST_CRASHPOINT=index.append=kill",
                 Subprocess::selfExePath(), "--crash-child=campaign",
                 "--dir=" + dir, "--csv=" + csv});
    child.closeWrite();
    const ExitStatus status = child.wait();
    EXPECT_TRUE(status.signaled && status.signal == SIGKILL)
        << status.describe();
    const std::string segments = dir + "/" + store::kDataFileName;
    EXPECT_TRUE(!fs::exists(segments) || fs::file_size(segments) == 0)
        << "the kill fires before the first stored byte lands";
    fs::remove_all(dir);
    std::remove(csv.c_str());
}

// ----------------------------------------------------------- child modes

/** Child options parsed from --spec= / --csv= / --dir=. */
struct ChildArgs
{
    std::string spec;
    std::string csv;
    std::string dir;
};

int
campaignChild(const ChildArgs &args)
{
    service::ResultStore store({args.dir});
    MatrixFixture fixture;
    CampaignOptions opts = fixture.options();
    opts.csvPath = args.csv;
    opts.cache = service::shardCacheHooks(store, "matrix");
    Campaign campaign(*fixture.engine, *fixture.registry, opts);
    const CampaignSummary summary = campaign.run();
    // A publish swallowed by the store's non-fatal path (throw/enospc
    // actions) lost a stored cycle: surface it so the matrix driver
    // reruns, which computes exactly that cycle again.
    return summary.interrupted || summary.cellsFailed != 0
            || store.stats().writeFailures != 0
        ? 4
        : 0;
}

int
storeChild(const ChildArgs &args)
{
    service::ResultStore store({args.dir, 8});
    for (const auto &[key, payload] : matrixStoreRecords())
        store.store(key, payload);
    // A publish swallowed by the non-fatal path (throw/enospc actions),
    // or a store that could not open its disk tier, still has to
    // surface to the matrix driver so it runs recovery.
    return store.indexed() && store.stats().writeFailures == 0 ? 0 : 5;
}

int
fsckChild(const ChildArgs &args)
{
    return store::compactIndexStoreDir(args.dir).clean() ? 0 : 6;
}

int
crashChildMain(const std::string &mode, const ChildArgs &args)
{
    try {
        if (!args.spec.empty())
            crashpoint::arm(crashpoint::parseSpec(args.spec.c_str()));
        if (mode == "campaign")
            return campaignChild(args);
        if (mode == "store")
            return storeChild(args);
        if (mode == "fsck")
            return fsckChild(args);
        std::fprintf(stderr, "unknown crash-child mode '%s'\n",
                     mode.c_str());
        return 125;
    } catch (const DavfError &error) {
        std::fprintf(stderr, "crash-child: %s\n", error.what());
        return 3;
    }
}

} // namespace
} // namespace davf

int
main(int argc, char **argv)
{
    std::string child_mode;
    davf::ChildArgs child_args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto take = [&](std::string_view prefix, std::string &out) {
            if (arg.substr(0, prefix.size()) != prefix)
                return false;
            out = std::string(arg.substr(prefix.size()));
            return true;
        };
        take("--crash-child=", child_mode)
            || take("--spec=", child_args.spec)
            || take("--csv=", child_args.csv)
            || take("--dir=", child_args.dir);
    }
    if (!child_mode.empty())
        return davf::crashChildMain(child_mode, child_args);

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
