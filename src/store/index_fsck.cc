#include "index_fsck.hh"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <unordered_map>

#include <unistd.h>

#include "store/hash_index.hh"
#include "store/index_store.hh"
#include "store/layout.hh"
#include "store/migrate.hh"
#include "store/segment_file.hh"
#include "util/atomic_file.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf::store {

namespace {

namespace fs = std::filesystem;

/** A garbled frame found by classification (repair quarantines it). */
struct GarbledFrame
{
    uint64_t offset = 0;
    uint64_t bytes = 0; ///< Full padded frame length.
};

/** Everything one read-only classification pass learned. */
struct Classified
{
    IndexFsckReport report;
    std::vector<GarbledFrame> garbled;
    uint64_t tailOffset = 0; ///< Valid only when tornTailBytes > 0.
};

Classified
classify(const std::string &dir)
{
    Classified out;
    IndexFsckReport &report = out.report;

    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        davf_throw(ErrorKind::Io, "store dir '", dir,
                   "' is not a directory");
    }
    bool haveIndexFile = false;
    bool haveDataFile = false;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (!it->is_regular_file(ec)) {
            if (name != "quarantine")
                ++report.foreign;
            continue;
        }
        if (name == kIndexFileName)
            haveIndexFile = true;
        else if (name == kDataFileName)
            haveDataFile = true;
        else if (name == kSplitJournalName)
            report.tornSplit = true;
        else if (name == kLockFileName)
            ; // Infrastructure, not data.
        else if (isLegacyRecordName(name))
            ++report.legacyStrays;
        else
            ++report.foreign;
    }
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot enumerate store dir '", dir,
                   "': ", ec.message());
    }
    if (report.tornSplit) {
        report.notes.push_back(
            "torn split: leftover " + std::string(kSplitJournalName)
            + " (process died mid-split; index must be rebuilt)");
    }

    // The index: load it the same way a reopen would. A leftover
    // journal already condemns it, so don't double-report.
    std::unordered_map<uint64_t, BucketSlot> byHash;
    HashIndex index;
    bool indexUsable = false;
    if (!haveIndexFile) {
        if (haveDataFile) {
            report.staleIndex = true;
            report.notes.push_back(
                "stale index: index.davf missing (rebuild required)");
        }
    } else if (!report.tornSplit) {
        auto loaded = index.load(
            dir, dir + "/" + std::string(kIndexFileName), false);
        if (loaded) {
            indexUsable = true;
            index.forEachSlot([&](const BucketSlot &slot) {
                byHash[slot.hash] = slot;
            });
        } else {
            report.staleIndex = true;
            report.notes.push_back(std::string("stale index: ")
                                   + loaded.error().what());
        }
    }

    // The segment file: full scan, cross-checked against the slots.
    std::unordered_map<uint64_t, uint64_t> matchedAt; // hash -> offset
    if (haveDataFile) {
        SegmentFile segments;
        segments.open(dir + "/" + std::string(kDataFileName), false);
        const SegmentFile::ScanStats scanned = segments.scan(
            0,
            [&](uint64_t offset, const FrameHeader &header,
                bool bodyValid) {
                if (!bodyValid) {
                    ++report.garbledFrames;
                    out.garbled.push_back(
                        {offset, frameBytes(header.size)});
                    report.notes.push_back(
                        "garbled frame at offset "
                        + std::to_string(offset));
                    return;
                }
                if (!indexUsable) {
                    ++report.validFrames;
                    return;
                }
                const auto slot = byHash.find(header.keyHash);
                if (slot != byHash.end()
                    && slot->second.offset == offset
                    && slot->second.size == header.size) {
                    ++report.validFrames;
                    matchedAt[header.keyHash] = offset;
                } else if (slot != byHash.end()) {
                    ++report.superseded;
                } else {
                    ++report.unindexed;
                }
            });
        if (scanned.tornTail) {
            report.tornTailBytes = segments.size() - scanned.tailOffset;
            out.tailOffset = scanned.tailOffset;
            report.notes.push_back(
                "torn tail: " + std::to_string(report.tornTailBytes)
                + " unframeable bytes at offset "
                + std::to_string(scanned.tailOffset));
        }
    }
    if (indexUsable) {
        index.forEachSlot([&](const BucketSlot &slot) {
            if (matchedAt.find(slot.hash) == matchedAt.end()) {
                ++report.staleEntries;
                report.notes.push_back(
                    "stale index entry: hash "
                    + std::to_string(slot.hash) + " -> offset "
                    + std::to_string(slot.offset)
                    + " holds no valid frame");
            }
        });
    }
    if (report.unindexed > 0) {
        report.notes.push_back(
            std::to_string(report.unindexed)
            + " valid frame(s) not reachable through the index "
              "(un-replayed tail; reopen or repair replays them)");
    }
    if (report.legacyStrays > 0) {
        report.notes.push_back(
            std::to_string(report.legacyStrays)
            + " legacy record file(s) alongside the index "
              "(the owner's next open or 'davf_store migrate' "
              "absorbs them)");
    }
    index.close();
    std::sort(report.notes.begin(), report.notes.end());
    return out;
}

/** Move the split journal into quarantine (evidence, not deleted). */
uint64_t
quarantineJournal(const std::string &dir)
{
    const fs::path journal = fs::path(dir) / kSplitJournalName;
    std::error_code ec;
    if (!fs::exists(journal, ec))
        return 0;
    const fs::path qdir = fs::path(dir) / "quarantine";
    fs::create_directories(qdir, ec);
    fs::path target = qdir / kSplitJournalName;
    for (int n = 1; fs::exists(target, ec); ++n) {
        target = qdir
            / (std::string(kSplitJournalName) + "."
               + std::to_string(n));
    }
    fs::rename(journal, target, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot quarantine '",
                   journal.string(), "': ", ec.message());
    }
    return 1;
}

/**
 * Quarantine then neutralize every garbled frame: the bytes move to
 * `quarantine/frame-<offset>.bin` as evidence, and the region is
 * zeroed so later scans resync past it instead of re-reporting it
 * (the dead space itself is reclaimed by compact).
 */
uint64_t
quarantineGarbledFrames(const std::string &dir,
                        const std::vector<GarbledFrame> &frames)
{
    if (frames.empty())
        return 0;
    uint64_t quarantined = 0;
    SegmentFile segments;
    segments.open(dir + "/" + std::string(kDataFileName));
    const std::string qdir = dir + "/quarantine";
    std::error_code ec;
    fs::create_directories(qdir, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot create '", qdir, "': ",
                   ec.message());
    }
    for (const GarbledFrame &frame : frames) {
        auto bytes = segments.readRaw(frame.offset, frame.bytes);
        if (!bytes) {
            davf_warn("cannot read garbled frame at offset ",
                      frame.offset, " for quarantine: ",
                      bytes.error().what());
            continue;
        }
        writeFileAtomic(qdir + "/frame-" + std::to_string(frame.offset)
                            + ".bin",
                        bytes.value());
        segments.zeroRange(frame.offset, frame.bytes);
        ++quarantined;
    }
    return quarantined;
}

} // namespace

bool
IndexFsckReport::clean() const
{
    return !tornSplit && !staleIndex && staleEntries == 0
        && unindexed == 0 && garbledFrames == 0 && tornTailBytes == 0;
}

IndexFsckReport
fsckIndexStore(const std::string &dir, const IndexFsckOptions &options)
{
    static const crashpoint::CrashPoint repair_point("fsck.repair");

    Classified first = classify(dir);
    if (!options.repair || first.report.clean())
        return first.report;

    repair_point.fire();

    uint64_t quarantined = 0;
    quarantined += quarantineGarbledFrames(dir, first.garbled);
    bool rebuilt = false;
    if (first.report.tornSplit || first.report.staleIndex
        || first.report.staleEntries > 0) {
        // The index is derived data — the segment file is the
        // evidence — so condemning it costs nothing but a rebuild.
        quarantined += quarantineJournal(dir);
        const std::string indexPath =
            dir + "/" + std::string(kIndexFileName);
        if (::unlink(indexPath.c_str()) != 0 && errno != ENOENT) {
            davf_throw(ErrorKind::Io, "cannot remove stale index '",
                       indexPath, "'");
        }
        rebuilt = true;
    }
    const bool hadTornTail = first.report.tornTailBytes > 0;
    {
        // Opening the store performs the remaining repairs: rebuild
        // or tail replay, torn-tail quarantine + truncate, and a
        // clean checkpoint. It also takes the index lock, so repair
        // cannot race a live server.
        IndexStore store({.dir = dir});
        store.requireOwner();
        if (hadTornTail)
            ++quarantined; // The tail-<offset>.bin evidence file.
        rebuilt = rebuilt || store.stats().rebuilds > 0;
    }

    Classified after = classify(dir);
    after.report.quarantined = quarantined;
    after.report.rebuilt = rebuilt;
    return after.report;
}

IndexFsckReport
compactIndexStoreDir(const std::string &dir)
{
    // Absorb legacy strays first so the rewrite covers them, then
    // repair so the live set the rewrite keeps is sound.
    const MigrateReport migrated = migrateStore(dir);
    IndexFsckReport repaired = fsckIndexStore(dir, {.repair = true});

    uint64_t reclaimed = 0;
    {
        IndexStore store({.dir = dir});
        reclaimed = store.compact();
    }

    Classified final = classify(dir);
    final.report.migrated = migrated.migrated;
    final.report.quarantined =
        repaired.quarantined + migrated.quarantined;
    final.report.rebuilt = true;
    final.report.reclaimedBytes = reclaimed;
    return final.report;
}

} // namespace davf::store
