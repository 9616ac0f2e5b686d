/**
 * @file
 * Tests for the result store's disk tier (src/store/): on-disk layout
 * codecs (including a deterministic fuzz pass over every parser), the
 * append-only segment file's damage resynchronisation, readers racing
 * an appending writer through the in-memory key directory, the
 * IndexStore crash model (open-time scan, torn-tail quarantine,
 * corrupt-degrades-to-miss), the read-only store of a process that
 * loses the index lock, an older release's index files, legacy
 * migration (offline and at open), fsck/compact, and the kill-anywhere
 * recovery matrix over every `index.*` crash point.
 *
 * Kill-action cases re-execute this binary (--crash-child=...) so the
 * SIGKILL lands in a scratch process, which is why this test has its
 * own main() instead of linking gtest_main.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/service/result_store.hh"
#include "src/store/index_fsck.hh"
#include "src/store/index_store.hh"
#include "src/store/layout.hh"
#include "src/store/migrate.hh"
#include "src/store/segment_file.hh"
#include "src/util/crashpoint.hh"
#include "src/util/error.hh"
#include "src/util/subprocess.hh"

namespace davf::store {
namespace {

namespace fs = std::filesystem;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "davf_store_"
        + std::to_string(::getpid()) + "_" + name;
}

std::string
matrixKey(size_t i)
{
    return "mk " + std::to_string(i);
}

std::string
matrixPayload(size_t i)
{
    return "0x1.8p-1 payload " + std::to_string(i);
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

/** Write matrix records 0..count-1 as legacy per-file records
 * (`r-*.rec`, what older releases wrote) into @p dir. */
void
writeLegacyRecords(const std::string &dir, size_t count)
{
    fs::create_directories(dir);
    for (size_t i = 0; i < count; ++i) {
        std::ofstream(dir + "/" + legacyRecordFileName(matrixKey(i)),
                      std::ios::binary)
            << serializeRecordText(matrixKey(i), matrixPayload(i));
    }
}

/** No legacy record file is left in @p dir. */
void
expectNoLegacyRecords(const std::string &dir)
{
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        EXPECT_FALSE(isLegacyRecordName(name))
            << "legacy record left behind: " << name;
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    std::ostringstream os;
    os << file.rdbuf();
    return os.str();
}

/** Flip one byte of @p path at @p offset (crafting garble damage). */
void
flipByte(const std::string &path, uint64_t offset)
{
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(static_cast<bool>(file)) << path;
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
    ASSERT_TRUE(static_cast<bool>(file)) << path;
}

/** Offset of the newest frame written for @p key in @p dir's segment
 * file (crafting damage to one record). */
uint64_t
frameOffset(const std::string &dir, const std::string &key)
{
    SegmentFile segments;
    segments.open(dir + "/" + kDataFileName, false);
    uint64_t found = 0;
    segments.scan(0, [&](uint64_t offset, const FrameHeader &header,
                         bool) {
        if (header.keyHash == fnv1a64(key))
            found = offset;
    });
    return found;
}

/** Does @p dir hold a file an older release's index used? */
bool
hasRetiredIndexFile(const std::string &dir)
{
    for (const char *name : kRetiredIndexFiles) {
        if (fs::exists(dir + "/" + name))
            return true;
    }
    return false;
}

// ------------------------------------------------------------------ layout

TEST(StoreLayout, RecordTextRoundTripsAndMatchesLegacyGrammar)
{
    const std::string text = serializeRecordText("k one", "v 1");
    EXPECT_EQ(text, service::ResultStore::serializeRecord("k one", "v 1"));

    const auto parsed = parseRecordText(text);
    ASSERT_TRUE(static_cast<bool>(parsed));
    EXPECT_EQ(parsed.value().first, "k one");
    EXPECT_EQ(parsed.value().second, "v 1");

    std::string_view key, payload;
    ASSERT_TRUE(splitCanonicalRecord(text, key, payload));
    EXPECT_EQ(key, "k one");
    EXPECT_EQ(payload, "v 1");
}

TEST(StoreLayout, RecordParsersRejectEveryDamageClass)
{
    const std::string text = serializeRecordText("k", "v");
    std::string_view key, payload;

    // Torn: every strict prefix fails the canonical splitter; the
    // line-lenient parser may tolerate a lost final newline but must
    // never produce a *different* record than the intact bytes.
    for (size_t len = 0; len < text.size(); ++len) {
        const std::string torn = text.substr(0, len);
        const auto lenient = parseRecordText(torn);
        if (lenient) {
            EXPECT_EQ(lenient.value().first, "k") << len;
            EXPECT_EQ(lenient.value().second, "v") << len;
        }
        EXPECT_FALSE(splitCanonicalRecord(torn, key, payload)) << len;
    }
    // Garble: any single flipped byte fails the sum (or the grammar).
    for (size_t i = 0; i < text.size(); ++i) {
        std::string garbled = text;
        garbled[i] = static_cast<char>(garbled[i] ^ 0x40);
        EXPECT_FALSE(static_cast<bool>(parseRecordText(garbled))) << i;
        EXPECT_FALSE(splitCanonicalRecord(garbled, key, payload)) << i;
    }
    // Trailing garbage after the end sentinel.
    EXPECT_FALSE(static_cast<bool>(parseRecordText(text + "x")));
    EXPECT_FALSE(splitCanonicalRecord(text + "x", key, payload));
}

TEST(StoreLayout, V3SkipsUnknownExtensionLines)
{
    // Forward compatibility (docs/ANALYSIS.md): a v3 reader skips
    // unknown lines between the payload and the sum, so a future
    // grammar that appends fields degrades old binaries to a recompute
    // instead of a quarantine.
    const std::string v3 = serializeRecordText("k", "v", 3);
    const size_t sum_at = v3.find("\nsum ");
    ASSERT_NE(sum_at, std::string::npos);
    std::string extended = v3;
    extended.insert(sum_at, "\nattrdigest 00ff\nprovenance node7");
    const auto parsed = parseRecordText(extended);
    ASSERT_TRUE(static_cast<bool>(parsed)) << parsed.error().what();
    EXPECT_EQ(parsed.value().first, "k");
    EXPECT_EQ(parsed.value().second, "v");

    // The v2 grammar stays strict: the same extension lines are fatal.
    const std::string v2 = serializeRecordText("k", "v", 2);
    std::string v2ext = v2;
    v2ext.insert(v2ext.find("\nsum "), "\nattrdigest 00ff");
    EXPECT_FALSE(static_cast<bool>(parseRecordText(v2ext)));

    // An extension line can never impersonate the end sentinel: a
    // record whose "extensions" run into `end` without a sum is torn.
    std::string no_sum = "davf-store v3\nkey k\npayload v\n"
                         "newfield x\nend\n";
    EXPECT_FALSE(static_cast<bool>(parseRecordText(no_sum)));

    // Future headers are a distinct class from damage.
    const std::string v4 = serializeRecordText("k", "v", 4);
    EXPECT_FALSE(static_cast<bool>(parseRecordText(v4)));
    EXPECT_TRUE(recordTextFutureVersion(v4));
    EXPECT_FALSE(recordTextFutureVersion(v2));
    EXPECT_FALSE(recordTextFutureVersion(v3));
    EXPECT_FALSE(recordTextFutureVersion("garbage\n"));
}

TEST(StoreLayout, FrameHeaderRoundTripsAndChecksums)
{
    FrameHeader header;
    header.size = 77;
    header.keyHash = fnv1a64("some key");
    header.bodySum = fnv1a64("some body");
    const std::string bytes = serializeFrameHeader(header);
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
    const auto reparsed = parseFrameHeader(bytes);
    ASSERT_TRUE(static_cast<bool>(reparsed));
    EXPECT_EQ(reparsed.value(), header);

    for (size_t i = 0; i < bytes.size(); ++i) {
        std::string garbled = bytes;
        garbled[i] = static_cast<char>(garbled[i] ^ 0x01);
        EXPECT_FALSE(static_cast<bool>(parseFrameHeader(garbled))) << i;
    }
}

TEST(StoreLayoutFuzz, ParsersNeverAcceptMutatedOrRandomInput)
{
    // Deterministic fuzz corpus over every layout parser: random
    // bytes, truncations of valid inputs, and single-byte mutations.
    // The parsers must reject without crashing; accepting any mutation
    // of a checksummed header would mean the checksum is not covering
    // those bytes.
    std::mt19937_64 rng(0xda5f5eedull);
    std::uniform_int_distribution<int> byte(0, 255);

    FrameHeader frame;
    frame.size = 16;
    const std::string frame_bytes = serializeFrameHeader(frame);

    for (int round = 0; round < 200; ++round) {
        // Pure noise at assorted sizes.
        std::string noise(static_cast<size_t>(rng() % 8192), '\0');
        for (char &c : noise)
            c = static_cast<char>(byte(rng));
        (void)parseFrameHeader(noise);
        (void)parseRecordText(noise);
        std::string_view k, p;
        (void)splitCanonicalRecord(noise, k, p);

        // A valid frame header with one mutated checksummed byte must
        // be rejected.
        auto mutate = [&](const std::string &valid, size_t covered) {
            std::string damaged = valid;
            const size_t at = rng() % covered;
            const char old = damaged[at];
            do {
                damaged[at] = static_cast<char>(byte(rng));
            } while (damaged[at] == old);
            return damaged;
        };
        EXPECT_FALSE(static_cast<bool>(
            parseFrameHeader(mutate(frame_bytes, kFrameHeaderBytes))));

        // Truncations of valid inputs.
        (void)parseFrameHeader(std::string_view(frame_bytes)
                                   .substr(0, rng() % kFrameHeaderBytes));

        // A v3 record padded with random "future grammar" extension
        // lines: the lenient parser must either reject it or return
        // exactly the embedded key/payload — never a record distorted
        // by the unknown lines (satellite of the attribution grammar).
        std::string v3ext = "davf-store v3\nkey k\npayload v\n";
        const int extras = static_cast<int>(rng() % 4);
        for (int i = 0; i < extras; ++i) {
            std::string extension(1 + rng() % 24, '\0');
            for (char &c : extension) {
                do {
                    c = static_cast<char>(byte(rng));
                } while (c == '\n');
            }
            v3ext += extension + "\n";
        }
        v3ext += "sum " + fnv1a64Hex("k\nv") + "\nend\n";
        const auto lenient = parseRecordText(v3ext);
        if (lenient) {
            EXPECT_EQ(lenient.value().first, "k");
            EXPECT_EQ(lenient.value().second, "v");
        }
        (void)parseRecordText(v3ext.substr(0, rng() % v3ext.size()));
    }
}

// ------------------------------------------------------------ segment file

TEST(SegmentFileT, AppendReadScanRoundTrip)
{
    const std::string dir = tempPath("seg_roundtrip");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = dir + "/" + kDataFileName;

    SegmentFile file;
    file.open(path);
    std::vector<uint64_t> offsets;
    std::vector<std::string> records;
    for (int i = 0; i < 20; ++i) {
        records.push_back(serializeRecordText(matrixKey(i),
                                              matrixPayload(i)));
        offsets.push_back(
            file.append(records.back(), fnv1a64(matrixKey(i))));
        EXPECT_EQ(offsets.back() % kFrameAlign, 0u);
    }
    for (int i = 0; i < 20; ++i) {
        const auto read = file.read(
            offsets[i], static_cast<uint32_t>(records[i].size()));
        ASSERT_TRUE(static_cast<bool>(read)) << i;
        EXPECT_EQ(read.value(), records[i]);
    }
    uint64_t seen = 0;
    const SegmentFile::ScanStats stats = file.scan(
        0, [&](uint64_t, const FrameHeader &, bool bodyValid) {
            EXPECT_TRUE(bodyValid);
            ++seen;
        });
    EXPECT_EQ(seen, 20u);
    EXPECT_EQ(stats.valid, 20u);
    EXPECT_EQ(stats.garbled, 0u);
    EXPECT_EQ(stats.tailOffset, file.size());
    EXPECT_FALSE(stats.tornTail);
    file.close();
    fs::remove_all(dir);
}

TEST(SegmentFileT, ScanResynchronisesOverMidFileDamage)
{
    const std::string dir = tempPath("seg_resync");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = dir + "/" + kDataFileName;

    std::vector<uint64_t> offsets;
    {
        SegmentFile file;
        file.open(path);
        for (int i = 0; i < 5; ++i) {
            offsets.push_back(file.append(
                serializeRecordText(matrixKey(i), matrixPayload(i)),
                fnv1a64(matrixKey(i))));
        }
        file.close();
    }
    // Garble the *body* of frame 2: its header still parses, the body
    // checksum fails, and the scan walks on to frames 3 and 4.
    flipByte(path, offsets[2] + kFrameHeaderBytes + 4);
    // Smash the *header* of frame 1: unframeable bytes the scan must
    // resync over without losing frame 2..4 (all on the 16-byte grid).
    for (uint64_t at = 0; at < kFrameHeaderBytes; ++at)
        flipByte(path, offsets[1] + at);

    SegmentFile file;
    file.open(path);
    uint64_t valid_seen = 0, garbled_seen = 0;
    const SegmentFile::ScanStats stats = file.scan(
        0, [&](uint64_t, const FrameHeader &, bool bodyValid) {
            bodyValid ? ++valid_seen : ++garbled_seen;
        });
    EXPECT_EQ(valid_seen, 3u);   // frames 0, 3, 4
    EXPECT_EQ(garbled_seen, 1u); // frame 2
    EXPECT_EQ(stats.garbled, 1u);
    EXPECT_GT(stats.skippedBytes, 0u); // frame 1's smashed header
    EXPECT_FALSE(stats.tornTail);
    file.close();
    fs::remove_all(dir);
}

TEST(SegmentFileT, TruncatedFinalFrameIsATornTail)
{
    const std::string dir = tempPath("seg_torn");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = dir + "/" + kDataFileName;

    uint64_t last = 0;
    {
        SegmentFile file;
        file.open(path);
        file.append(serializeRecordText("a", "1"), fnv1a64("a"));
        last = file.append(serializeRecordText("b", "2"), fnv1a64("b"));
        file.close();
    }
    fs::resize_file(path, last + kFrameHeaderBytes / 2);

    SegmentFile file;
    file.open(path);
    const SegmentFile::ScanStats stats =
        file.scan(0, [](uint64_t, const FrameHeader &, bool) {});
    EXPECT_EQ(stats.valid, 1u);
    EXPECT_TRUE(stats.tornTail);
    EXPECT_EQ(stats.tailOffset, last);
    file.close();
    fs::remove_all(dir);
}

// ------------------------------------------------------------- index store

TEST(IndexStoreT, RoundTripPersistsAcrossReopen)
{
    const std::string dir = tempPath("istore_roundtrip");
    fs::remove_all(dir);
    {
        IndexStore store({.dir = dir});
        for (size_t i = 0; i < 50; ++i)
            store.put(matrixKey(i), matrixPayload(i));
        for (size_t i = 0; i < 50; ++i) {
            const auto result = store.lookup(matrixKey(i));
            ASSERT_EQ(result.status, IndexStore::LookupStatus::Hit) << i;
            EXPECT_EQ(result.payload, matrixPayload(i)) << i;
        }
        EXPECT_EQ(store.lookup("absent").status,
                  IndexStore::LookupStatus::Miss);
    }
    {
        IndexStore store({.dir = dir});
        for (size_t i = 0; i < 50; ++i) {
            const auto result = store.lookup(matrixKey(i));
            ASSERT_EQ(result.status, IndexStore::LookupStatus::Hit) << i;
            EXPECT_EQ(result.payload, matrixPayload(i)) << i;
        }
        EXPECT_EQ(store.stats().replayed, 50u)
            << "the open-time scan loads every frame";
    }
    EXPECT_FALSE(hasRetiredIndexFile(dir))
        << "the segment file is the only data file";
    fs::remove_all(dir);
}

TEST(IndexStoreT, UncheckpointedTailIsReplayedOnReopen)
{
    const std::string dir = tempPath("istore_replay");
    fs::remove_all(dir);
    {
        // Nothing is ever checkpointed: the data file alone must carry
        // every record, the newest frame of a rewritten key winning.
        IndexStore store({.dir = dir});
        store.put(matrixKey(0), "an older payload");
        store.put(matrixKey(0), matrixPayload(0));
        store.put(matrixKey(1), matrixPayload(1));
        store.put(matrixKey(2), matrixPayload(2));
    }
    IndexStore store({.dir = dir});
    for (size_t i = 0; i < 3; ++i) {
        const auto result = store.lookup(matrixKey(i));
        ASSERT_EQ(result.status, IndexStore::LookupStatus::Hit) << i;
        EXPECT_EQ(result.payload, matrixPayload(i)) << i;
    }
    EXPECT_EQ(store.stats().replayed, 4u);
    EXPECT_EQ(store.stats().keys, 3u);
    fs::remove_all(dir);
}

TEST(IndexStoreT, GarbledRecordDegradesToAMissAndDropsItsSlot)
{
    const std::string dir = tempPath("istore_garble");
    fs::remove_all(dir);
    {
        IndexStore store({.dir = dir});
        store.put(matrixKey(0), matrixPayload(0));
        store.put(matrixKey(1), matrixPayload(1));
    }
    flipByte(dir + "/" + kDataFileName,
             frameOffset(dir, matrixKey(1)) + kFrameHeaderBytes + 8);

    IndexStore store({.dir = dir});
    const auto damaged = store.lookup(matrixKey(1));
    EXPECT_EQ(damaged.status, IndexStore::LookupStatus::Corrupt);
    EXPECT_EQ(store.lookup(matrixKey(1)).status,
              IndexStore::LookupStatus::Miss)
        << "the corrupt slot is dropped on sight";
    const auto intact = store.lookup(matrixKey(0));
    ASSERT_EQ(intact.status, IndexStore::LookupStatus::Hit);
    EXPECT_EQ(intact.payload, matrixPayload(0));
    EXPECT_EQ(store.stats().corrupt, 1u);

    // The recompute-and-store path repairs, like the legacy tier.
    store.put(matrixKey(1), matrixPayload(1));
    EXPECT_EQ(store.lookup(matrixKey(1)).status,
              IndexStore::LookupStatus::Hit);
    fs::remove_all(dir);
}

TEST(IndexStoreT, TornTailIsQuarantinedNotDeleted)
{
    const std::string dir = tempPath("istore_torntail");
    fs::remove_all(dir);
    {
        IndexStore store({.dir = dir});
        store.put(matrixKey(0), matrixPayload(0));
        store.put(matrixKey(1), matrixPayload(1));
    }
    const uint64_t tail = frameOffset(dir, matrixKey(1));
    fs::resize_file(dir + "/" + kDataFileName,
                    tail + kFrameHeaderBytes + 3);

    IndexStore store({.dir = dir});
    EXPECT_EQ(store.stats().tailRepairs, 1u);
    EXPECT_EQ(store.lookup(matrixKey(0)).status,
              IndexStore::LookupStatus::Hit);
    EXPECT_EQ(store.lookup(matrixKey(1)).status,
              IndexStore::LookupStatus::Miss);
    // The torn bytes were preserved as evidence, never deleted.
    bool quarantined = false;
    if (fs::exists(dir + "/quarantine")) {
        for (const auto &entry :
             fs::directory_iterator(dir + "/quarantine"))
            quarantined |= entry.is_regular_file();
    }
    EXPECT_TRUE(quarantined);
    // And the store keeps working past the repair.
    store.put(matrixKey(2), matrixPayload(2));
    EXPECT_EQ(store.lookup(matrixKey(2)).status,
              IndexStore::LookupStatus::Hit);
    fs::remove_all(dir);
}

TEST(IndexStoreT, SecondOpenerIsLockedOut)
{
    const std::string dir = tempPath("istore_lock");
    fs::remove_all(dir);
    IndexStore store({.dir = dir});
    store.put(matrixKey(0), matrixPayload(0));
    EXPECT_FALSE(store.readOnly());

    // The second opener cannot take the lock: it reads a snapshot and
    // refuses every mutation.
    IndexStore second({.dir = dir});
    EXPECT_TRUE(second.readOnly());
    EXPECT_EQ(second.lookup(matrixKey(0)).payload, matrixPayload(0));
    EXPECT_THROW(second.requireOwner(), DavfError);
    EXPECT_THROW(second.put(matrixKey(1), matrixPayload(1)), DavfError);
    EXPECT_THROW(second.compact(), DavfError);
    EXPECT_THROW(migrateStore(dir), DavfError);
    EXPECT_THROW(compactIndexStoreDir(dir), DavfError);
    fs::remove_all(dir);
}

TEST(IndexStoreT, CompactDropsSupersededFramesAndKeepsPayloads)
{
    const std::string dir = tempPath("istore_compact");
    fs::remove_all(dir);
    IndexStore store({.dir = dir});
    for (size_t i = 0; i < 30; ++i)
        store.put(matrixKey(i), matrixPayload(i));
    // Rewrite half the keys: the old frames become superseded space.
    for (size_t i = 0; i < 15; ++i)
        store.put(matrixKey(i), matrixPayload(i));
    const uint64_t reclaimed = store.compact();
    EXPECT_GT(reclaimed, 0u);
    for (size_t i = 0; i < 30; ++i) {
        const auto result = store.lookup(matrixKey(i));
        ASSERT_EQ(result.status, IndexStore::LookupStatus::Hit) << i;
        EXPECT_EQ(result.payload, matrixPayload(i)) << i;
    }
    EXPECT_EQ(store.compact(), 0u) << "compaction converges";
    fs::remove_all(dir);
}

TEST(IndexStoreT, ConcurrentReadersSurviveAppends)
{
    const std::string dir = tempPath("istore_race");
    fs::remove_all(dir);
    constexpr size_t kKeys = 600;
    IndexStore store({.dir = dir});

    // Readers race the appender: a published key must always be a
    // hit carrying its own payload, never a neighbour's or a torn one.
    std::atomic<size_t> published{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
            while (published.load(std::memory_order_acquire) < kKeys) {
                const size_t limit =
                    published.load(std::memory_order_acquire);
                if (limit == 0)
                    continue;
                const size_t i = rng() % limit;
                const auto result = store.lookup(matrixKey(i));
                if (result.status != IndexStore::LookupStatus::Hit
                    || result.payload != matrixPayload(i)) {
                    failed.store(true);
                    return;
                }
                // Unpublished keys are clean misses, never errors.
                if (store.lookup("absent " + std::to_string(i)).status
                    != IndexStore::LookupStatus::Miss) {
                    failed.store(true);
                    return;
                }
            }
        });
    }
    for (size_t i = 0; i < kKeys; ++i) {
        store.put(matrixKey(i), matrixPayload(i));
        published.store(i + 1, std::memory_order_release);
    }
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(store.stats().keys, kKeys);
    EXPECT_EQ(store.stats().corrupt, 0u);
    fs::remove_all(dir);
}

TEST(IndexStoreT, RetiredIndexFilesAreRemovedByTheOwnerOnly)
{
    const std::string dir = tempPath("istore_retired");
    fs::remove_all(dir);
    {
        service::ResultStore store({.dir = dir, .memCapacity = 0});
        for (size_t i = 0; i < 20; ++i)
            store.store(matrixKey(i), matrixPayload(i));
    }
    // Garbage where an older release kept its index and split journal.
    auto plant = [&] {
        for (const char *name : kRetiredIndexFiles)
            std::ofstream(dir + "/" + name, std::ios::binary)
                << "not an index " << name;
    };
    plant();
    const IndexFsckReport report = fsckIndexStore(dir);
    EXPECT_TRUE(report.clean()) << "leftover index files are not damage";
    EXPECT_EQ(report.foreign, 0u);

    {
        // The owner removes them and serves identical bytes.
        service::ResultStore owner({.dir = dir, .memCapacity = 0});
        EXPECT_FALSE(hasRetiredIndexFile(dir));
        for (size_t i = 0; i < 20; ++i)
            EXPECT_EQ(owner.lookup(matrixKey(i)).value_or(""),
                      matrixPayload(i))
                << i;

        // A read-only lock loser leaves planted ones alone.
        plant();
        service::ResultStore reader({.dir = dir, .memCapacity = 0});
        for (size_t i = 0; i < 20; ++i)
            EXPECT_EQ(reader.lookup(matrixKey(i)).value_or(""),
                      matrixPayload(i))
                << i;
        for (const char *name : kRetiredIndexFiles)
            EXPECT_EQ(readFile(dir + "/" + name),
                      std::string("not an index ") + name);
    }
    fs::remove_all(dir);
}

// --------------------------------------------- ResultStore integration

TEST(StoreIntegration, LegacyDirectoryMigratesAtOpen)
{
    const std::string legacy_dir = tempPath("open_legacy");
    const std::string fresh_dir = tempPath("open_fresh");
    fs::remove_all(legacy_dir);
    fs::remove_all(fresh_dir);
    writeLegacyRecords(legacy_dir, 3);

    // The owner absorbs an existing legacy directory at open...
    {
        service::ResultStore legacy({.dir = legacy_dir, .memCapacity = 0});
        EXPECT_TRUE(legacy.indexed());
        expectNoLegacyRecords(legacy_dir);
        for (size_t i = 0; i < 3; ++i)
            EXPECT_EQ(legacy.lookup(matrixKey(i)).value_or(""),
                      matrixPayload(i))
                << i;
        EXPECT_EQ(legacy.indexStats()->keys, 3u);
    }
    // ...and starts an empty directory indexed.
    service::ResultStore fresh({.dir = fresh_dir, .memCapacity = 0});
    EXPECT_TRUE(fresh.indexed());
    fresh.store("k", "v");
    EXPECT_TRUE(fs::exists(fresh_dir + "/" + kDataFileName));
    EXPECT_FALSE(hasRetiredIndexFile(fresh_dir));
    expectNoLegacyRecords(fresh_dir);
    fs::remove_all(legacy_dir);
    fs::remove_all(fresh_dir);
}

TEST(StoreIntegration, IndexedStoreServesByteIdenticalPayloads)
{
    const std::string dir = tempPath("integ_bytes");
    fs::remove_all(dir);
    {
        service::ResultStore store({.dir = dir, .memCapacity = 0});
        for (size_t i = 0; i < 40; ++i)
            store.store(matrixKey(i), matrixPayload(i));
    }
    service::ResultStore store({.dir = dir, .memCapacity = 0});
    ASSERT_TRUE(store.indexed());
    for (size_t i = 0; i < 40; ++i)
        EXPECT_EQ(store.lookup(matrixKey(i)).value_or(""),
                  matrixPayload(i))
            << i;
    EXPECT_EQ(store.stats().diskHits, 40u);
    ASSERT_TRUE(store.indexStats().has_value());
    EXPECT_EQ(store.indexStats()->keys, 40u);
    fs::remove_all(dir);
}

TEST(StoreIntegration, IndexedStoreAbsorbsLegacyStraysAtOpen)
{
    const std::string dir = tempPath("integ_absorb");
    fs::remove_all(dir);
    {
        service::ResultStore store({.dir = dir, .memCapacity = 0});
        store.store("indexed", "indexed payload");
    }
    // A stray legacy record next to the index (as an older binary or
    // an interrupted migration would leave).
    const std::string stray = dir + "/" + legacyRecordFileName("stray");
    std::ofstream(stray, std::ios::binary)
        << serializeRecordText("stray", "stray payload");

    service::ResultStore store({.dir = dir, .memCapacity = 0});
    ASSERT_TRUE(store.indexed());
    EXPECT_FALSE(fs::exists(stray))
        << "absorbed into the index, legacy file retired";
    EXPECT_EQ(store.lookup("stray").value_or(""), "stray payload");
    EXPECT_EQ(store.lookup("indexed").value_or(""), "indexed payload");
    fs::remove_all(dir);
}

TEST(StoreIntegration, LockLoserReadsTheIndexReadOnly)
{
    const std::string dir = tempPath("integ_readonly");
    fs::remove_all(dir);
    constexpr size_t kEarlier = 200; // written by a closed session
    constexpr size_t kRecords = 250;
    {
        service::ResultStore owner({.dir = dir, .memCapacity = 0});
        for (size_t i = 0; i < kEarlier; ++i)
            owner.store(matrixKey(i), matrixPayload(i));
    }
    // The live owner: the rest are appended under its lock.
    service::ResultStore owner({.dir = dir, .memCapacity = 0});
    for (size_t i = kEarlier; i < kRecords; ++i)
        owner.store(matrixKey(i), matrixPayload(i));

    const std::string segments = dir + "/" + kDataFileName;
    const std::string leftover = segments + ".compact";
    std::ofstream(leftover) << "an unfinished compaction";
    const std::string segment_bytes = readFile(segments);
    const auto segment_mtime = fs::last_write_time(segments);
    {
        service::ResultStore reader({.dir = dir, .memCapacity = 4});
        ASSERT_TRUE(reader.indexed());
        for (size_t i = 0; i < kRecords; ++i)
            EXPECT_EQ(reader.lookup(matrixKey(i)).value_or(""),
                      matrixPayload(i))
                << i;
        EXPECT_EQ(reader.stats().diskHits, kRecords);

        // Its own results stay in memory and are counted, not written.
        reader.store("reader key", "reader payload");
        EXPECT_EQ(reader.lookup("reader key").value_or(""),
                  "reader payload");
        EXPECT_EQ(reader.stats().unpublishedWrites, 1u);
        EXPECT_EQ(reader.stats().writes, 0u);
        EXPECT_EQ(reader.stats().writeFailures, 0u);
    }
    EXPECT_EQ(readFile(segments), segment_bytes);
    EXPECT_EQ(fs::last_write_time(segments), segment_mtime)
        << "not even identical bytes are written back";
    EXPECT_FALSE(hasRetiredIndexFile(dir));
    EXPECT_TRUE(fs::exists(leftover)) << "only the owner removes it";

    // A garbled frame is a miss for the reader, which keeps the entry
    // (a second read is corrupt again) and leaves the owner's intact.
    const size_t pos =
        segment_bytes.find("key " + matrixKey(7) + "\npayload ");
    ASSERT_NE(pos, std::string::npos);
    flipByte(segments, pos + matrixKey(7).size() + 14);
    const std::string garbled_bytes = readFile(segments);
    {
        service::ResultStore reader({.dir = dir, .memCapacity = 0});
        EXPECT_FALSE(reader.lookup(matrixKey(7)).has_value());
        EXPECT_FALSE(reader.lookup(matrixKey(7)).has_value());
        EXPECT_EQ(reader.stats().corruptRecords, 2u);
        EXPECT_EQ(reader.lookup(matrixKey(8)).value_or(""),
                  matrixPayload(8));
    }
    EXPECT_EQ(readFile(segments), garbled_bytes);
    EXPECT_EQ(owner.indexStats()->keys, kRecords);

    // A torn tail (as an owner's append in flight leaves) is left for
    // the owner: no truncation, no quarantine.
    std::ofstream(segments, std::ios::binary | std::ios::app)
        << "half a frame";
    const std::string torn_bytes = readFile(segments);
    {
        service::ResultStore reader({.dir = dir, .memCapacity = 0});
        EXPECT_EQ(reader.lookup(matrixKey(kRecords - 1)).value_or(""),
                  matrixPayload(kRecords - 1));
    }
    EXPECT_EQ(readFile(segments), torn_bytes);
    EXPECT_FALSE(fs::exists(dir + "/quarantine"));

    // The owner keeps publishing; a snapshot taken before misses the
    // new record safely, one taken after serves it.
    service::ResultStore before({.dir = dir, .memCapacity = 0});
    owner.store("late key", "late payload");
    EXPECT_EQ(owner.stats().writes, kRecords - kEarlier + 1);
    EXPECT_FALSE(before.lookup("late key").has_value());
    service::ResultStore after({.dir = dir, .memCapacity = 0});
    EXPECT_EQ(after.lookup("late key").value_or(""), "late payload");
    fs::remove_all(dir);
}

TEST(StoreIntegration, LruGaugesTrackEntriesAndBytes)
{
    service::ResultStore store({.dir = "", .memCapacity = 2});
    EXPECT_EQ(store.stats().lruEntries, 0u);
    EXPECT_EQ(store.stats().lruBytes, 0u);

    store.store("a", "11");
    store.store("b", "22");
    service::StoreStats stats = store.stats();
    EXPECT_EQ(stats.lruEntries, 2u);
    EXPECT_EQ(stats.lruBytes, 6u); // ("a"+"11") + ("b"+"22")

    store.store("c", "333"); // evicts "a"
    stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.lruEntries, 2u);
    EXPECT_EQ(stats.lruBytes, 7u); // ("b"+"22") + ("c"+"333")

    store.store("c", "4"); // replace shrinks the byte gauge
    stats = store.stats();
    EXPECT_EQ(stats.lruEntries, 2u);
    EXPECT_EQ(stats.lruBytes, 5u); // ("b"+"22") + ("c"+"4")
}

// --------------------------------------------------------------- migration

TEST(StoreMigrate, LegacyDirectoryMigratesByteIdentically)
{
    const std::string dir = tempPath("migrate_basic");
    fs::remove_all(dir);
    writeLegacyRecords(dir, 25);
    // One damaged legacy record rides along; it must be quarantined,
    // never deleted, and never absorbed.
    const std::string damaged =
        dir + "/" + legacyRecordFileName("damaged");
    std::ofstream(damaged, std::ios::binary) << "davf-store v2\nkey d";

    const MigrateReport report = migrateStore(dir);
    EXPECT_EQ(report.migrated, 25u);
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_FALSE(fs::exists(damaged));
    EXPECT_TRUE(fs::exists(dir + "/" + kDataFileName));
    expectNoLegacyRecords(dir);

    // Idempotent: a second pass finds nothing to do.
    const MigrateReport again = migrateStore(dir);
    EXPECT_EQ(again.migrated, 0u);
    EXPECT_EQ(again.quarantined, 0u);

    service::ResultStore store({.dir = dir, .memCapacity = 0});
    ASSERT_TRUE(store.indexed());
    for (size_t i = 0; i < 25; ++i)
        EXPECT_EQ(store.lookup(matrixKey(i)).value_or(""),
                  matrixPayload(i))
            << i;
    fs::remove_all(dir);
}

// -------------------------------------------------------------- index fsck

TEST(IndexFsck, CleanStoreIsClean)
{
    const std::string dir = tempPath("ifsck_clean");
    fs::remove_all(dir);
    {
        IndexStore store({.dir = dir});
        for (size_t i = 0; i < 10; ++i)
            store.put(matrixKey(i), matrixPayload(i));
    }
    const IndexFsckReport report = fsckIndexStore(dir);
    EXPECT_TRUE(report.clean())
        << (report.notes.empty() ? "" : report.notes.front());
    EXPECT_EQ(report.validFrames, 10u);
    fs::remove_all(dir);
}

TEST(IndexFsck, ClassifiesAndRepairsEveryDamageKind)
{
    const std::string dir = tempPath("ifsck_damage");
    fs::remove_all(dir);
    {
        IndexStore store({.dir = dir});
        for (size_t i = 0; i < 12; ++i)
            store.put(matrixKey(i), matrixPayload(i));
        store.put(matrixKey(3), matrixPayload(3)); // superseded frame
    }
    // Garble one record body, and leave half a frame at the end (an
    // append that died mid-write).
    const std::string segments = dir + "/" + kDataFileName;
    flipByte(segments,
             frameOffset(dir, matrixKey(7)) + kFrameHeaderBytes + 2);
    std::ofstream(segments, std::ios::binary | std::ios::app)
        << "half a frame";
    const IndexFsckReport report = fsckIndexStore(dir);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.garbledFrames, 1u);
    EXPECT_GT(report.tornTailBytes, 0u);
    EXPECT_EQ(report.superseded, 1u);
    EXPECT_EQ(report.validFrames, 11u);
    EXPECT_EQ(report.notes.size(), 2u);

    const IndexFsckReport repaired =
        fsckIndexStore(dir, {.repair = true});
    EXPECT_EQ(repaired.quarantined, 2u);
    EXPECT_TRUE(fsckIndexStore(dir).clean())
        << "repair converges to a clean store";

    // Every undamaged record is still served byte-identically; the
    // garbled one is a miss, not an error.
    service::ResultStore store({.dir = dir, .memCapacity = 0});
    for (size_t i = 0; i < 12; ++i) {
        if (i == 7) {
            EXPECT_FALSE(store.lookup(matrixKey(i)).has_value());
        } else {
            EXPECT_EQ(store.lookup(matrixKey(i)).value_or(""),
                      matrixPayload(i))
                << i;
        }
    }
    fs::remove_all(dir);
}

TEST(IndexFsck, CompactAbsorbsStraysQuarantinesDamageAndReclaims)
{
    const std::string dir = tempPath("ifsck_compact");
    fs::remove_all(dir);
    {
        IndexStore store({.dir = dir});
        for (size_t i = 0; i < 10; ++i)
            store.put(matrixKey(i), matrixPayload(i));
        for (size_t i = 0; i < 10; ++i) // superseded space
            store.put(matrixKey(i), matrixPayload(i));
    }
    std::ofstream(dir + "/" + legacyRecordFileName("stray"),
                  std::ios::binary)
        << serializeRecordText("stray", "stray payload");

    const IndexFsckReport report = compactIndexStoreDir(dir);
    EXPECT_EQ(report.migrated, 1u);
    EXPECT_GT(report.reclaimedBytes, 0u);
    EXPECT_TRUE(fsckIndexStore(dir).clean());

    service::ResultStore store({.dir = dir, .memCapacity = 0});
    EXPECT_EQ(store.lookup("stray").value_or(""), "stray payload");
    for (size_t i = 0; i < 10; ++i)
        EXPECT_EQ(store.lookup(matrixKey(i)).value_or(""),
                  matrixPayload(i))
            << i;
    fs::remove_all(dir);
}

// --------------------------------------------------- crash recovery matrix

constexpr size_t kMatrixRecords = 220;

/**
 * After a child died mid-write at some index.* point: repair, rerun
 * the child to completion, and require every record to come back
 * byte-identical through a fresh ResultStore.
 */
void
recoverAndVerify(const std::string &dir)
{
    const IndexFsckReport repaired =
        fsckIndexStore(dir, {.repair = true});
    (void)repaired; // any damage classified here is quarantined
    EXPECT_TRUE(fsckIndexStore(dir).clean());

    Subprocess rerun;
    rerun.spawn({Subprocess::selfExePath(), "--crash-child=istore",
                 "--dir=" + dir});
    rerun.closeWrite();
    const ExitStatus rerun_status = rerun.wait();
    EXPECT_TRUE(rerun_status.exited && rerun_status.code == 0)
        << rerun_status.describe();

    service::ResultStore store({.dir = dir, .memCapacity = 0});
    ASSERT_TRUE(store.indexed());
    for (size_t i = 0; i < kMatrixRecords; ++i)
        EXPECT_EQ(store.lookup(matrixKey(i)).value_or(""),
                  matrixPayload(i))
            << i;
    EXPECT_EQ(store.stats().corruptRecords, 0u);
}

TEST(IndexCrashMatrix, KillAtEveryMutationPointRecoversByteIdentically)
{
    // The append point, killed mid-stream, plus the two payload-damage
    // actions it supports. (index.tail_repair, index.migrate and
    // compact.rewrite have their own cases below.)
    const char *specs[] = {
        "index.append:100=kill",
        "index.append:100=torn",
        "index.append:100=garble",
    };
    for (const char *spec : specs) {
        SCOPED_TRACE(spec);
        const std::string dir =
            tempPath(std::string("matrix_") + spec);
        fs::remove_all(dir);

        Subprocess child;
        child.spawn({Subprocess::selfExePath(), "--crash-child=istore",
                     "--dir=" + dir, "--spec=" + std::string(spec)});
        child.closeWrite();
        const ExitStatus status = child.wait();
        EXPECT_TRUE(status.signaled && status.signal == SIGKILL)
            << status.describe();

        recoverAndVerify(dir);
        fs::remove_all(dir);
    }
}

TEST(IndexCrashMatrix, EnospcAppendIsNonFatalAndSelfHealing)
{
    const std::string dir = tempPath("matrix_enospc");
    fs::remove_all(dir);
    IndexStore store({.dir = dir});
    store.put(matrixKey(0), matrixPayload(0));
    {
        ArmGuard armed("index.append=enospc");
        EXPECT_THROW(store.put(matrixKey(1), matrixPayload(1)),
                     DavfError);
    }
    // The failed append's partial frame is overwritten by the next
    // one: no torn garbage lands between frames.
    store.put(matrixKey(1), matrixPayload(1));
    EXPECT_EQ(store.lookup(matrixKey(0)).payload, matrixPayload(0));
    EXPECT_EQ(store.lookup(matrixKey(1)).payload, matrixPayload(1));
    EXPECT_TRUE(fsckIndexStore(dir).clean());
    fs::remove_all(dir);
}

TEST(IndexCrashMatrix, KillMidMigrationIsRerunnable)
{
    const std::string dir = tempPath("matrix_migrate");
    fs::remove_all(dir);
    writeLegacyRecords(dir, 20);
    Subprocess child;
    child.spawn({Subprocess::selfExePath(), "--crash-child=imigrate",
                 "--dir=" + dir, "--spec=index.migrate:10=kill"});
    child.closeWrite();
    const ExitStatus status = child.wait();
    EXPECT_TRUE(status.signaled && status.signal == SIGKILL)
        << status.describe();

    // The next owner finishes the migration at open: *every* record is
    // served and every legacy file retired.
    {
        service::ResultStore store({.dir = dir, .memCapacity = 0});
        ASSERT_TRUE(store.indexed());
        for (size_t i = 0; i < 20; ++i)
            EXPECT_EQ(store.lookup(matrixKey(i)).value_or(""),
                      matrixPayload(i))
                << i;
    }
    expectNoLegacyRecords(dir);
    const MigrateReport report = migrateStore(dir);
    EXPECT_EQ(report.migrated + report.quarantined, 0u);
    fs::remove_all(dir);
}

TEST(IndexCrashMatrix, KillMidTailRepairIsRerunnable)
{
    const std::string dir = tempPath("matrix_tailrepair");
    fs::remove_all(dir);
    // A torn tail, crafted by the append point's torn action.
    {
        Subprocess child;
        child.spawn({Subprocess::selfExePath(), "--crash-child=istore",
                     "--dir=" + dir, "--spec=index.append:50=torn"});
        child.closeWrite();
        const ExitStatus status = child.wait();
        ASSERT_TRUE(status.signaled && status.signal == SIGKILL)
            << status.describe();
    }
    // The reopen discovers the tail in its scan, then dies
    // mid-quarantine.
    {
        Subprocess child;
        child.spawn({Subprocess::selfExePath(), "--crash-child=iopen",
                     "--dir=" + dir, "--spec=index.tail_repair=kill"});
        child.closeWrite();
        const ExitStatus status = child.wait();
        ASSERT_TRUE(status.signaled && status.signal == SIGKILL)
            << status.describe();
    }
    recoverAndVerify(dir);
    fs::remove_all(dir);
}

TEST(IndexCrashMatrix, KillMidCompactLosesNoRecords)
{
    const std::string dir = tempPath("matrix_compact");
    fs::remove_all(dir);
    {
        IndexStore store({.dir = dir});
        for (size_t i = 0; i < 30; ++i)
            store.put(matrixKey(i), matrixPayload(i));
        for (size_t i = 0; i < 30; ++i)
            store.put(matrixKey(i), matrixPayload(i));
    }
    Subprocess child;
    child.spawn({Subprocess::selfExePath(), "--crash-child=icompact",
                 "--dir=" + dir, "--spec=compact.rewrite=kill"});
    child.closeWrite();
    const ExitStatus status = child.wait();
    EXPECT_TRUE(status.signaled && status.signal == SIGKILL)
        << status.describe();

    // The interrupted compaction left either the old data file or the
    // finished rename — both rescan into every record being served.
    const IndexFsckReport report = compactIndexStoreDir(dir);
    EXPECT_TRUE(fsckIndexStore(dir).clean());
    (void)report;
    service::ResultStore store({.dir = dir, .memCapacity = 0});
    for (size_t i = 0; i < 30; ++i)
        EXPECT_EQ(store.lookup(matrixKey(i)).value_or(""),
                  matrixPayload(i))
            << i;
    fs::remove_all(dir);
}

// --------------------------------------------------------------- children

/** Child options parsed from --spec= / --dir=. */
struct ChildArgs
{
    std::string spec;
    std::string dir;
};

int
istoreChild(const ChildArgs &args)
{
    IndexStore store({.dir = args.dir});
    for (size_t i = 0; i < kMatrixRecords; ++i)
        store.put(matrixKey(i), matrixPayload(i));
    return 0;
}

int
iopenChild(const ChildArgs &args)
{
    IndexStore store({.dir = args.dir});
    return 0;
}

int
imigrateChild(const ChildArgs &args)
{
    (void)migrateStore(args.dir);
    return 0;
}

int
icompactChild(const ChildArgs &args)
{
    IndexStore store({.dir = args.dir});
    (void)store.compact();
    return 0;
}

int
crashChildMain(const std::string &mode, const ChildArgs &args)
{
    try {
        if (!args.spec.empty())
            crashpoint::arm(crashpoint::parseSpec(args.spec.c_str()));
        if (mode == "istore")
            return istoreChild(args);
        if (mode == "iopen")
            return iopenChild(args);
        if (mode == "imigrate")
            return imigrateChild(args);
        if (mode == "icompact")
            return icompactChild(args);
        std::fprintf(stderr, "unknown crash-child mode '%s'\n",
                     mode.c_str());
        return 125;
    } catch (const DavfError &error) {
        std::fprintf(stderr, "crash-child: %s\n", error.what());
        return 3;
    }
}

} // namespace
} // namespace davf::store

int
main(int argc, char **argv)
{
    std::string child_mode;
    davf::store::ChildArgs child_args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto take = [&](std::string_view prefix, std::string &out) {
            if (arg.substr(0, prefix.size()) != prefix)
                return false;
            out = std::string(arg.substr(prefix.size()));
            return true;
        };
        if (take("--crash-child=", child_mode)
            || take("--spec=", child_args.spec)
            || take("--dir=", child_args.dir)) {
            continue;
        }
    }
    if (!child_mode.empty())
        return davf::store::crashChildMain(child_mode, child_args);

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
