/**
 * @file
 * The disk tier of the result store: an append-only segment data file
 * (store/segment_file.hh) plus an in-memory key directory that maps
 * each key hash to the newest frame written for it (the Bitcask
 * design: Sheehy & Smith, 2010).
 *
 * **Crash model.** The segment file is the only thing on disk and the
 * only source of truth. Every open fills the key directory with one
 * sequential scan of its frame headers, so there is no derived file
 * that can go stale or need a checkpoint:
 *  - a frame with a garbled body stays in the directory until a lookup
 *    reads it and drops it (fsck quarantines the bytes);
 *  - a torn segment tail is quarantined into `<dir>/quarantine/`
 *    (never deleted) and truncated away.
 * Lookups verify frame checksums, record checksums, and the full key,
 * so a damaged or colliding record degrades to a miss — never to a
 * wrong payload.
 *
 * **Concurrency.** Lookups hold the directory's shared_mutex shared
 * for the find and the frame read. Writers serialize on a mutex for
 * the append and take the directory lock exclusively only for the
 * map update that publishes the frame.
 *
 * **Exclusivity.** One process owns the store at a time (an exclusive
 * flock on `index.lock`). A process whose flock fails opens the store
 * **read-only** instead: it runs the same scan and serves lookups from
 * that snapshot, but never writes, truncates, quarantines, unlinks or
 * drops an entry; its put() and compact() throw. Records the owner
 * appends after the scan are misses there, never wrong answers.
 *
 * **Older releases** kept a persistent hash index beside the data
 * (`index.davf`, `split.journal`). The owner removes those files at
 * open (a release that expects them rebuilds them from the segment
 * file); a read-only opener leaves them alone.
 *
 * Crash points: `index.append` and `index.tail_repair` — every
 * mutation site of an open, so the kill-anywhere matrix covers this
 * engine like the rest of the persistence stack.
 */

#ifndef DAVF_STORE_INDEX_STORE_HH
#define DAVF_STORE_INDEX_STORE_HH

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "store/segment_file.hh"

namespace davf::store {

/** Monotonic counters + shape snapshot of one indexed tier. */
struct IndexStoreStats
{
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t corrupt = 0;     ///< Damaged frames/records (entry dropped).
    uint64_t future = 0;      ///< Future-version records (entry kept).
    uint64_t collisions = 0;  ///< Full-key mismatch on a hash match.
    uint64_t appends = 0;
    uint64_t replayed = 0;    ///< Frames the open-time scan loaded.
    uint64_t tailRepairs = 0; ///< Torn segment tails quarantined.

    uint64_t keys = 0;         ///< Live key-directory entries.
    uint64_t segmentBytes = 0; ///< Data file logical size.

    bool operator==(const IndexStoreStats &) const = default;
};

/** The segment file + in-memory key directory (see file comment). */
class IndexStore
{
  public:
    struct Options
    {
        std::string dir;
    };

    /**
     * Open (creating and repairing as needed — see crash model
     * above), or read-only when another process holds the index lock
     * (see exclusivity above). Throws DavfError{Io} when the
     * directory is unusable.
     */
    explicit IndexStore(Options options);

    /** Releases the lock. */
    ~IndexStore();

    IndexStore(const IndexStore &) = delete;
    IndexStore &operator=(const IndexStore &) = delete;

    enum class LookupStatus : uint8_t {
        Hit,
        Miss,
        Corrupt,   ///< Damaged record dropped from the directory.
        Collision, ///< A different key's record owns this hash.
        Future,    ///< Record from a newer grammar; entry kept intact.
    };

    struct LookupResult
    {
        LookupStatus status = LookupStatus::Miss;
        std::string payload; ///< Valid only for Hit.
    };

    /** Did the index lock go to another process (see exclusivity)? */
    bool readOnly() const { return readOnlySnapshot; }

    /** Throws DavfError{Io} when readOnly(): maintenance needs the
     * lock so it cannot race a live owner. */
    void requireOwner() const;

    /** Look @p key up. Safe concurrently with a writer; never throws. */
    LookupResult lookup(const std::string &key);

    /**
     * Persist @p payload under @p key. Throws DavfError{Io} on an
     * append failure or when readOnly() (the caller counts it, warns,
     * and keeps serving from memory).
     */
    void put(const std::string &key, const std::string &payload);

    /**
     * Persist an already-serialized record (migration — preserves the
     * original bytes exactly). @p record must be the canonical
     * serialized form of (@p key, its payload).
     */
    void putRecord(const std::string &key, const std::string &record);

    /**
     * Rewrite the segment file keeping only the records the directory
     * serves (the newest frame per key), dropping superseded
     * duplicates, damaged frames, and quarantined-tail leftovers.
     * Returns segment bytes reclaimed. Crash-safe: the rename of the
     * rewritten file is the commit point, and either file scans into
     * the same records at the next open. Fires the
     * `compact.rewrite` crash point. Throws DavfError{Io}.
     */
    uint64_t compact();

    IndexStoreStats stats() const;

    const std::string &dir() const { return storeDir; }

  private:
    /** Where the newest frame of one key hash lives. */
    struct Location
    {
        uint64_t offset = 0;
        uint32_t size = 0;
    };

    void removeLeftovers();
    void loadDirectory();
    void repairTornTail(uint64_t offset, uint64_t end);

    std::string storeDir;
    int lockFd = -1;
    bool readOnlySnapshot = false; ///< Lost the lock (see exclusivity).

    std::mutex writerMutex; ///< Serializes appends and compaction.
    SegmentFile segments;

    mutable std::shared_mutex directoryMutex;
    std::unordered_map<uint64_t, Location> directory;

    mutable std::mutex statsMutex;
    IndexStoreStats counters;
};

} // namespace davf::store

#endif // DAVF_STORE_INDEX_STORE_HH
