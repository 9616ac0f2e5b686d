#include "index_fsck.hh"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <unordered_set>

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
    bool haveDataFile = false;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (!it->is_regular_file(ec)) {
            if (name != "quarantine")
                ++report.foreign;
            continue;
        }
        if (name == kDataFileName) {
            haveDataFile = true;
        } else if (name == kLockFileName) {
            // Infrastructure, not data.
        } else if (isLegacyRecordName(name)) {
            ++report.legacyStrays;
        } else if (std::find(std::begin(kRetiredIndexFiles),
                             std::end(kRetiredIndexFiles), name)
                   != std::end(kRetiredIndexFiles)) {
            report.notes.push_back(
                "retired index file " + name
                + " (an older release's; the owner's next open "
                  "removes it)");
        } else {
            ++report.foreign;
        }
    }
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot enumerate store dir '", dir,
                   "': ", ec.message());
    }

    // The segment file: a full scan with every body verified. Every
    // valid frame but the newest of its key hash is superseded.
    if (haveDataFile) {
        SegmentFile segments;
        segments.open(dir + "/" + std::string(kDataFileName), false);
        std::unordered_set<uint64_t> keys;
        uint64_t valid = 0;
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
                keys.insert(header.keyHash);
                ++valid;
            });
        report.validFrames = keys.size();
        report.superseded = valid - keys.size();
        if (scanned.tornTail) {
            report.tornTailBytes = segments.size() - scanned.tailOffset;
            out.tailOffset = scanned.tailOffset;
            report.notes.push_back(
                "torn tail: " + std::to_string(report.tornTailBytes)
                + " unframeable bytes at offset "
                + std::to_string(scanned.tailOffset));
        }
    }
    if (report.legacyStrays > 0) {
        report.notes.push_back(
            std::to_string(report.legacyStrays)
            + " legacy record file(s) alongside the segment file "
              "(the owner's next open or 'davf_store migrate' "
              "absorbs them)");
    }
    std::sort(report.notes.begin(), report.notes.end());
    return out;
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
    return garbledFrames == 0 && tornTailBytes == 0;
}

IndexFsckReport
fsckIndexStore(const std::string &dir, const IndexFsckOptions &options)
{
    static const crashpoint::CrashPoint repair_point("fsck.repair");

    Classified first = classify(dir);
    if (!options.repair || first.report.clean())
        return first.report;

    repair_point.fire();

    uint64_t quarantined = quarantineGarbledFrames(dir, first.garbled);
    {
        // Opening the store performs the remaining repair: torn-tail
        // quarantine + truncate. It also takes the index lock, so
        // repair cannot race a live server.
        IndexStore store({.dir = dir});
        store.requireOwner();
        if (first.report.tornTailBytes > 0)
            ++quarantined; // The tail-<offset>.bin evidence file.
    }

    Classified after = classify(dir);
    after.report.quarantined = quarantined;
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
    final.report.reclaimedBytes = reclaimed;
    return final.report;
}

} // namespace davf::store
