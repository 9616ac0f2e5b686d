#include "index_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
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
    obs::Counter tailRepairs{"store.index.tail_repairs"};
    obs::Gauge keys{"store.index.keys"};
    obs::Gauge segmentBytes{"store.index.segment_bytes"};
};

IndexMetrics &
indexMetrics()
{
    static IndexMetrics *const metrics = new IndexMetrics();
    return *metrics;
}

} // namespace

IndexStore::IndexStore(Options options) : storeDir(std::move(options.dir))
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
        if (!readOnlySnapshot)
            removeLeftovers();
        segments.open(storeDir + "/" + kDataFileName, !readOnlySnapshot);
        loadDirectory();
    } catch (...) {
        segments.close();
        if (lockFd >= 0)
            ::close(lockFd);
        lockFd = -1;
        throw;
    }
}

IndexStore::~IndexStore()
{
    segments.close();
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
IndexStore::removeLeftovers()
{
    // A leftover compaction rewrite never finished (its rename is the
    // commit point), so it holds only copies of frames still present
    // in the real segment file.
    const std::string rewrite =
        storeDir + "/" + kDataFileName + kCompactSuffix;
    if (::unlink(rewrite.c_str()) == 0)
        davf_warn("removed unfinished compaction rewrite '", rewrite, "'");
    // An older release's index is derived from the segment file, and
    // that release rebuilds it when it is missing.
    for (const char *name : kRetiredIndexFiles) {
        const std::string path = storeDir + "/" + name;
        if (::unlink(path.c_str()) == 0)
            davf_warn("removed an older release's index file '", path,
                      "'");
    }
}

void
IndexStore::loadDirectory()
{
    // Later frames overwrite earlier ones, so the newest frame per key
    // hash wins, as it did when it was appended. Bodies are not read:
    // a garbled one stays reachable, and its first lookup reports it
    // corrupt and drops it, like a frame damaged after the scan (fsck
    // quarantines the bytes).
    directory.clear();
    uint64_t loaded = 0;
    const SegmentFile::ScanStats scanned = segments.scan(
        0,
        [&](uint64_t offset, const FrameHeader &header, bool) {
            directory[header.keyHash] = {offset, header.size};
            ++loaded;
        },
        false);
    // A read-only snapshot leaves a torn tail alone: it is most likely
    // the owner's append in flight.
    if (scanned.tornTail && !readOnlySnapshot)
        repairTornTail(scanned.tailOffset, segments.size());
    {
        const std::lock_guard<std::mutex> lock(statsMutex);
        counters.replayed += loaded;
    }
    indexMetrics().replayed.add(loaded);
    indexMetrics().keys.set(static_cast<int64_t>(directory.size()));
    indexMetrics().segmentBytes.set(
        static_cast<int64_t>(segments.size()));
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
    std::optional<Location> damaged;
    {
        // Held across the read so compact() cannot swap the segment
        // file out from under the view.
        const std::shared_lock<std::shared_mutex> lock(directoryMutex);
        const auto found = directory.find(hash);
        if (found != directory.end()) {
            const Location location = found->second;
            std::string scratch;
            auto record =
                segments.readView(location.offset, location.size, scratch);
            std::string_view recordKey, payload;
            if (record
                && splitCanonicalRecord(record.value(), recordKey,
                                        payload)) {
                // A key mismatch is a full 64-bit hash collision: the
                // record is some other key's valid result. Kept —
                // serving it would poison the cache, dropping it would
                // hurt the owner.
                result.status = recordKey == key
                    ? LookupStatus::Hit
                    : LookupStatus::Collision;
                if (result.status == LookupStatus::Hit)
                    result.payload.assign(payload);
            } else if (record
                       && recordTextFutureVersion(record.value())) {
                // A record written by a newer binary sharing this
                // store: not damage. Keep the entry (the writer can
                // still serve it); the caller recomputes.
                result.status = LookupStatus::Future;
            } else {
                result.status = LookupStatus::Corrupt;
                damaged = location;
            }
        }
    }
    if (damaged && !readOnlySnapshot) {
        // Drop the entry so readers stop re-verifying it (the owner
        // only; the snapshot keeps it). Offset-guarded: a rewrite
        // published since keeps its entry. The bytes stay in the
        // segment file for fsck/compact to quarantine.
        const std::unique_lock<std::shared_mutex> lock(directoryMutex);
        const auto found = directory.find(hash);
        if (found != directory.end()
            && found->second.offset == damaged->offset)
            directory.erase(found);
    }

    IndexMetrics &metrics = indexMetrics();
    metrics.lookups.add(1);
    const std::lock_guard<std::mutex> lock(statsMutex);
    ++counters.lookups;
    switch (result.status) {
      case LookupStatus::Hit:
        metrics.hits.add(1);
        ++counters.hits;
        break;
      case LookupStatus::Corrupt:
        metrics.corrupt.add(1);
        ++counters.corrupt;
        break;
      case LookupStatus::Collision:
        metrics.collisions.add(1);
        ++counters.collisions;
        break;
      case LookupStatus::Future:
        metrics.future.add(1);
        ++counters.future;
        break;
      case LookupStatus::Miss:
        break;
    }
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
    const uint64_t hash = fnv1a64(key);
    const std::lock_guard<std::mutex> writer(writerMutex);
    const uint64_t offset = segments.append(record, hash);
    size_t keys = 0;
    {
        const std::unique_lock<std::shared_mutex> lock(directoryMutex);
        directory[hash] = {offset, static_cast<uint32_t>(record.size())};
        keys = directory.size();
    }
    {
        const std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.appends;
    }
    indexMetrics().appends.add(1);
    indexMetrics().keys.set(static_cast<int64_t>(keys));
    indexMetrics().segmentBytes.set(
        static_cast<int64_t>(segments.size()));
}

uint64_t
IndexStore::compact()
{
    static const crashpoint::CrashPoint rewrite_point(
        "compact.rewrite");

    requireOwner();
    const std::lock_guard<std::mutex> writer(writerMutex);
    const uint64_t before = segments.size();

    // The directory's entries are exactly the survivors: the newest
    // frame per key. Rewriting in offset order keeps append order (and
    // thus the newest-wins scan invariant) intact.
    std::vector<std::pair<uint64_t, Location>> live;
    {
        const std::shared_lock<std::shared_mutex> lock(directoryMutex);
        live.assign(directory.begin(), directory.end());
    }
    std::sort(live.begin(), live.end(),
              [](const auto &a, const auto &b) {
                  return a.second.offset < b.second.offset;
              });

    rewrite_point.fire();

    const std::string dataPath = storeDir + "/" + kDataFileName;
    const std::string tmpPath = dataPath + kCompactSuffix;
    std::unordered_map<uint64_t, Location> rewritten;
    {
        SegmentFile out;
        out.open(tmpPath);
        out.truncateTo(0);
        out.syncAppends = false;
        for (const auto &[hash, location] : live) {
            auto record = segments.read(location.offset, location.size);
            if (!record) {
                // A garbled body (the open scan reads headers only):
                // compaction drops it. The bytes stay quarantinable in
                // the pre-compact file until the rename; fsck
                // quarantines such frames before compact is the
                // documented order.
                davf_warn("compaction dropping damaged frame at offset ",
                          location.offset, " in '", dataPath, "'");
                continue;
            }
            rewritten[hash] = {out.append(record.value(), hash),
                               location.size};
        }
        out.sync();
    }

    // Commit point: the rename. Killed before it, the old file (and
    // the leftover rewrite the next owner removes) remains; killed
    // after, the compact file does. Either scans correctly at the next
    // open.
    if (::rename(tmpPath.c_str(), dataPath.c_str()) != 0) {
        davf_throw(ErrorKind::Io, "cannot commit compaction rename '",
                   tmpPath, "' -> '", dataPath, "': ",
                   std::strerror(errno));
    }
    fsyncDir(storeDir);

    {
        const std::unique_lock<std::shared_mutex> lock(directoryMutex);
        segments.close();
        segments.open(dataPath);
        directory = std::move(rewritten);
        indexMetrics().keys.set(static_cast<int64_t>(directory.size()));
    }
    indexMetrics().segmentBytes.set(
        static_cast<int64_t>(segments.size()));
    const uint64_t after = segments.size();
    return before > after ? before - after : 0;
}

IndexStoreStats
IndexStore::stats() const
{
    IndexStoreStats snapshot;
    {
        const std::lock_guard<std::mutex> lock(statsMutex);
        snapshot = counters;
    }
    {
        const std::shared_lock<std::shared_mutex> lock(directoryMutex);
        snapshot.keys = directory.size();
    }
    snapshot.segmentBytes = segments.size();
    return snapshot;
}

} // namespace davf::store
