#include "index_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "util/atomic_file.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf::store {

namespace {

/** Where damage evidence goes (shared with index_fsck/migrate). */
const char *const kQuarantineDirName = "quarantine";

/** In-progress compaction rewrite target (segments.davf + this). */
const char *const kCompactSuffix = ".compact";

/** fsync a directory so a rename inside it survives a power cut. */
void
fsyncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        davf_throw(ErrorKind::Io, "cannot open dir '", dir, "': ",
                   std::strerror(errno));
    }
    const int rc = ::fsync(fd);
    const int saved = errno;
    ::close(fd);
    if (rc != 0 && saved != EINVAL && saved != ENOTSUP) {
        davf_throw(ErrorKind::Io, "cannot fsync dir '", dir, "': ",
                   std::strerror(saved));
    }
}

/** store.index.* metric handles (docs/OBSERVABILITY.md). */
struct IndexMetrics
{
    obs::Counter lookups{"store.index.lookups"};
    obs::Counter hits{"store.index.hits"};
    obs::Counter corrupt{"store.index.corrupt_records"};
    obs::Counter future{"store.index.future_records"};
    obs::Counter collisions{"store.index.collisions"};
    obs::Counter appends{"store.index.appends"};
    obs::Counter replayed{"store.index.replayed_frames"};
    obs::Counter rebuilds{"store.index.rebuilds"};
    obs::Counter tailRepairs{"store.index.tail_repairs"};
    obs::Counter checkpoints{"store.index.checkpoints"};
    obs::Counter checkpointFailures{
        "store.index.checkpoint_failures"};
    obs::Gauge keys{"store.index.keys"};
    obs::Gauge buckets{"store.index.buckets"};
    obs::Gauge depth{"store.index.depth"};
    obs::Gauge splits{"store.index.splits"};
    obs::Gauge segmentBytes{"store.index.segment_bytes"};
    obs::ValueHistogram probesPerLookup{
        "store.index.probes_per_lookup"};
};

IndexMetrics &
indexMetrics()
{
    static IndexMetrics *const metrics = new IndexMetrics();
    return *metrics;
}

} // namespace

bool
IndexStore::present(const std::string &dir)
{
    struct stat st{};
    const std::string path = dir + "/" + kIndexFileName;
    return ::stat(path.c_str(), &st) == 0;
}

IndexStore::IndexStore(Options the_options)
    : options(std::move(the_options)), storeDir(options.dir)
{
    davf_assert(!storeDir.empty(), "IndexStore needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(storeDir, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot create store dir '", storeDir,
                   "': ", ec.message());
    }

    const std::string lockPath = storeDir + "/" + kLockFileName;
    lockFd = ::open(lockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                    0644);
    if (lockFd < 0) {
        davf_throw(ErrorKind::Io, "cannot open index lock '", lockPath,
                   "': ", std::strerror(errno));
    }
    if (::flock(lockFd, LOCK_EX | LOCK_NB) != 0) {
        // Another process owns the store: serve a read-only snapshot.
        ::close(lockFd);
        lockFd = -1;
        readOnlySnapshot = true;
    }

    try {
        // A leftover compaction rewrite never finished (its rename is
        // the commit point), so it holds only copies of frames still
        // present in the real segment file. Only the owner removes it.
        const std::string staleCompact =
            storeDir + "/" + kDataFileName + kCompactSuffix;
        if (!readOnlySnapshot && ::unlink(staleCompact.c_str()) == 0) {
            davf_warn("removed unfinished compaction rewrite '",
                      staleCompact, "'");
        }
        openOrRecover();
    } catch (...) {
        segments.close();
        index.close();
        ::close(lockFd);
        lockFd = -1;
        throw;
    }
}

IndexStore::~IndexStore()
{
    try {
        if (!readOnlySnapshot)
            checkpoint();
    } catch (const DavfError &error) {
        davf_warn("index checkpoint on close failed for '", storeDir,
                  "' (next open replays the tail): ", error.what());
    }
    segments.close();
    index.close();
    if (lockFd >= 0)
        ::close(lockFd);
}

void
IndexStore::requireOwner() const
{
    if (readOnlySnapshot) {
        davf_throw(ErrorKind::Io, "store '", storeDir,
                   "' is read-only here: another process holds ",
                   kLockFileName);
    }
}

void
IndexStore::openOrRecover()
{
    const std::string indexPath = storeDir + "/" + kIndexFileName;
    // The index loads before the segment file is sized, so a read-only
    // snapshot never holds a slot past the end it sees: the owner
    // appends a frame before any page can point at it.
    auto loaded = index.load(storeDir, indexPath, !readOnlySnapshot);
    segments.open(storeDir + "/" + kDataFileName, !readOnlySnapshot);
    segments.syncAppends = options.syncAppends;
    bool mutated = false;
    if (loaded) {
        if (loaded.value().dataCommitted > segments.size()) {
            // The data file shrank behind the watermark (external
            // truncation): nothing the watermark vouches for can be
            // trusted.
            davf_warn("index watermark past segment EOF in '", storeDir,
                      "'; rebuilding");
            rebuild();
            mutated = true;
        } else {
            const uint64_t replayed =
                replayTail(loaded.value().dataCommitted);
            mutated = replayed > 0 || !loaded.value().clean;
        }
    } else {
        const bool fresh =
            !std::filesystem::exists(indexPath) && segments.size() == 0;
        if (!fresh && !readOnlySnapshot) {
            davf_warn("index unusable in '", storeDir, "' (",
                      loaded.error().what(), "); rebuilding");
        }
        rebuild();
        mutated = true;
    }
    if (!readOnlySnapshot
        && (mutated || !loaded || !loaded.value().clean)) {
        try {
            checkpointLockedFree();
        } catch (const DavfError &error) {
            const std::lock_guard<std::mutex> lock(statsMutex);
            ++counters.checkpointFailures;
            indexMetrics().checkpointFailures.add(1);
            davf_warn("index checkpoint after open failed for '",
                      storeDir, "': ", error.what());
        }
    }
    refreshShapeGauges();
}

void
IndexStore::rebuild()
{
    if (segments.size() > 0 || IndexStore::present(storeDir)) {
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.rebuilds;
        indexMetrics().rebuilds.add(1);
    }
    index.create(storeDir, readOnlySnapshot
                               ? std::string()
                               : storeDir + "/" + kIndexFileName);
    replayTail(0);
}

uint64_t
IndexStore::replayTail(uint64_t from)
{
    uint64_t replayed = 0;
    const SegmentFile::ScanStats scanned = segments.scan(
        from,
        [&](uint64_t offset, const FrameHeader &header, bool bodyValid) {
            if (!bodyValid)
                return; // Garbled frame: skippable; fsck quarantines.
            index.insert(header.keyHash, offset, header.size);
            ++replayed;
        });
    // A read-only snapshot leaves a torn tail alone: it is most likely
    // the owner's append in flight.
    if (scanned.tornTail && !readOnlySnapshot)
        repairTornTail(scanned.tailOffset, segments.size());
    if (replayed > 0) {
        const std::lock_guard<std::mutex> lock(statsMutex);
        counters.replayed += replayed;
        indexMetrics().replayed.add(replayed);
    }
    return replayed;
}

void
IndexStore::repairTornTail(uint64_t offset, uint64_t end)
{
    static const crashpoint::CrashPoint repair_point(
        "index.tail_repair");
    try {
        repair_point.fire();
        auto bytes = segments.readRaw(offset, end - offset);
        if (!bytes)
            davf_throw(ErrorKind::Io, bytes.error().what());
        const std::string qdir =
            storeDir + "/" + kQuarantineDirName;
        std::error_code ec;
        std::filesystem::create_directories(qdir, ec);
        if (ec) {
            davf_throw(ErrorKind::Io, "cannot create '", qdir, "': ",
                       ec.message());
        }
        // Quarantine-not-delete: the torn bytes are evidence; only
        // after they are safely copied does the tail get truncated.
        writeFileAtomic(qdir + "/tail-" + std::to_string(offset)
                            + ".bin",
                        bytes.value());
        segments.truncateTo(offset);
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.tailRepairs;
        indexMetrics().tailRepairs.add(1);
    } catch (const DavfError &error) {
        // Leave the tail in place but realign the append offset so
        // future frames stay on the 16-byte grid a scan can resync on.
        davf_warn("cannot quarantine torn segment tail in '", storeDir,
                  "' (leaving in place): ", error.what());
        segments.alignAppend();
    }
}

IndexStore::LookupResult
IndexStore::lookup(const std::string &key)
{
    LookupResult result;
    const uint64_t hash = fnv1a64(key);
    uint32_t probes = 0;
    const auto candidate = index.lookup(hash, &probes);
    indexMetrics().lookups.add(1);
    indexMetrics().probesPerLookup.observe(probes);
    if (!candidate) {
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.lookups;
        return result;
    }

    std::string scratch;
    auto record =
        segments.readView(candidate->offset, candidate->size, scratch);
    std::string_view recordKey, payload;
    if (record
        && !splitCanonicalRecord(record.value(), recordKey, payload)
        && recordTextFutureVersion(record.value())) {
        // A record written by a newer binary sharing this store: not
        // damage. Keep the slot (the writer can still serve it) and
        // report a distinct miss so the caller recomputes.
        result.status = LookupStatus::Future;
        indexMetrics().future.add(1);
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.lookups;
        ++counters.future;
        return result;
    }
    if (!record
        || !splitCanonicalRecord(record.value(), recordKey, payload)) {
        // Damaged frame or record: degrade to a miss and drop the
        // slot so readers stop re-verifying it (the owner only; the
        // snapshot keeps it); the bytes stay in the segment file for
        // fsck/compact to quarantine.
        if (!readOnlySnapshot)
            index.remove(hash, candidate->offset);
        result.status = LookupStatus::Corrupt;
        indexMetrics().corrupt.add(1);
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.lookups;
        ++counters.corrupt;
        return result;
    }
    if (recordKey != key) {
        // A full 64-bit hash collision: the record is some other
        // key's valid result. Deliberately kept — serving it would
        // poison the cache, dropping it would hurt the owner.
        result.status = LookupStatus::Collision;
        indexMetrics().collisions.add(1);
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.lookups;
        ++counters.collisions;
        return result;
    }
    result.status = LookupStatus::Hit;
    result.payload.assign(payload);
    indexMetrics().hits.add(1);
    const std::lock_guard<std::mutex> lock(statsMutex);
    ++counters.lookups;
    ++counters.hits;
    return result;
}

void
IndexStore::put(const std::string &key, const std::string &payload)
{
    putRecord(key, serializeRecordText(key, payload));
}

void
IndexStore::putRecord(const std::string &key,
                      const std::string &record)
{
    requireOwner();
    const std::lock_guard<std::mutex> lock(writerMutex);
    putLocked(key, record);
}

void
IndexStore::putLocked(const std::string &key,
                      const std::string &record)
{
    const uint64_t hash = fnv1a64(key);
    const uint64_t offset = segments.append(record, hash);
    index.insert(hash, offset,
                 static_cast<uint32_t>(record.size()));
    {
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.appends;
    }
    indexMetrics().appends.add(1);
    ++appendsSinceCheckpoint;
    maybeCheckpointLocked();
    refreshShapeGauges();
}

void
IndexStore::maybeCheckpointLocked()
{
    if (appendsSinceCheckpoint < options.checkpointInterval)
        return;
    try {
        checkpointLockedFree();
    } catch (const DavfError &error) {
        // The appended record is durable and indexed in memory; a
        // failed checkpoint only means the next open replays more
        // tail. Count it, keep serving.
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.checkpointFailures;
        indexMetrics().checkpointFailures.add(1);
        davf_warn("index checkpoint failed for '", storeDir,
                  "' (continuing): ", error.what());
    }
}

void
IndexStore::checkpoint()
{
    requireOwner();
    const std::lock_guard<std::mutex> lock(writerMutex);
    checkpointLockedFree();
}

void
IndexStore::checkpointLockedFree()
{
    segments.sync();
    index.checkpoint(segments.size());
    appendsSinceCheckpoint = 0;
    const std::lock_guard<std::mutex> lock(statsMutex);
    ++counters.checkpoints;
    indexMetrics().checkpoints.add(1);
}

uint64_t
IndexStore::compact()
{
    static const crashpoint::CrashPoint rewrite_point(
        "compact.rewrite");

    requireOwner();
    const std::lock_guard<std::mutex> lock(writerMutex);
    const uint64_t before = segments.size();

    // The index's live slots are exactly the survivors: the newest
    // valid frame per key. Rewriting in offset order keeps append
    // order (and thus the newest-wins replay invariant) intact.
    std::vector<BucketSlot> live;
    index.forEachSlot(
        [&](const BucketSlot &slot) { live.push_back(slot); });
    std::sort(live.begin(), live.end(),
              [](const BucketSlot &a, const BucketSlot &b) {
                  return a.offset < b.offset;
              });

    rewrite_point.fire();

    const std::string dataPath = storeDir + "/" + kDataFileName;
    const std::string tmpPath = dataPath + kCompactSuffix;
    {
        SegmentFile out;
        out.open(tmpPath);
        out.truncateTo(0);
        out.syncAppends = false;
        for (const BucketSlot &slot : live) {
            auto record = segments.read(slot.offset, slot.size);
            if (!record) {
                // Damaged since indexing: compaction drops it (the
                // bytes stay quarantinable in the pre-compact file
                // until the rename; fsck quarantines such frames
                // before compact is the documented order).
                davf_warn("compaction dropping damaged frame at offset ",
                          slot.offset, " in '", dataPath, "'");
                continue;
            }
            out.append(record.value(), slot.hash);
        }
        out.sync();
    }

    // Commit protocol: the index describes pre-compact offsets, so it
    // must die before the rename. Whatever instant this process is
    // killed at, reopen finds either (old data, no index) or (new
    // data, no index) and rebuilds correctly from a scan.
    index.close();
    if (::unlink((storeDir + "/" + kIndexFileName).c_str()) != 0
        && errno != ENOENT) {
        davf_throw(ErrorKind::Io, "cannot remove stale index in '",
                   storeDir, "': ", std::strerror(errno));
    }
    fsyncDir(storeDir);
    if (::rename(tmpPath.c_str(), dataPath.c_str()) != 0) {
        davf_throw(ErrorKind::Io, "cannot commit compaction rename '",
                   tmpPath, "' -> '", dataPath, "': ",
                   std::strerror(errno));
    }
    fsyncDir(storeDir);

    segments.close();
    segments.open(dataPath);
    segments.syncAppends = options.syncAppends;
    rebuild();
    checkpointLockedFree();
    refreshShapeGauges();
    const uint64_t after = segments.size();
    return before > after ? before - after : 0;
}

void
IndexStore::forEachSlot(
    const std::function<void(const BucketSlot &)> &fn) const
{
    index.forEachSlot(fn);
}

void
IndexStore::refreshShapeGauges()
{
    IndexMetrics &metrics = indexMetrics();
    metrics.keys.set(static_cast<int64_t>(index.keyCount()));
    metrics.buckets.set(static_cast<int64_t>(index.bucketCount()));
    metrics.depth.set(static_cast<int64_t>(index.globalDepth()));
    metrics.splits.set(static_cast<int64_t>(index.splits()));
    metrics.segmentBytes.set(static_cast<int64_t>(segments.size()));
}

IndexStoreStats
IndexStore::stats() const
{
    IndexStoreStats snapshot;
    {
        const std::lock_guard<std::mutex> lock(statsMutex);
        snapshot = counters;
    }
    snapshot.keys = index.keyCount();
    snapshot.buckets = index.bucketCount();
    snapshot.depth = index.globalDepth();
    snapshot.splits = index.splits();
    snapshot.segmentBytes = segments.size();
    return snapshot;
}

} // namespace davf::store
