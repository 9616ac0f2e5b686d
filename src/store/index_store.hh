/**
 * @file
 * The disk tier of the result store: an append-only segment data file
 * (store/segment_file.hh) accelerated by a persistent extendible-hash
 * index (store/hash_index.hh), living together in one store
 * directory.
 *
 * **Crash model.** The segment file is the source of truth; the index
 * is an acceleration structure. On open:
 *  - a well-formed index is trusted up to its checkpoint watermark and
 *    the segment tail past the watermark is replayed into it;
 *  - *any* structural doubt (bad header/page checksum, a leftover
 *    split journal, directory holes) triggers a full rebuild from a
 *    segment scan;
 *  - a torn segment tail is quarantined into `<dir>/quarantine/`
 *    (never deleted) and truncated away.
 * Lookups verify frame checksums, record checksums, and the full key,
 * so a damaged or colliding record degrades to a miss — never to a
 * wrong payload.
 *
 * **Exclusivity.** One process owns the store at a time (an exclusive
 * flock on `index.lock`); within it, writers serialize on a mutex
 * while readers stay lock-free. A process whose flock fails opens the
 * store **read-only** instead: it loads `index.davf` into memory
 * (detached from the file, see store/hash_index.hh) and replays the
 * segment tail past the watermark in memory, or on any load doubt
 * builds the index in memory from a segment scan. It serves lookups
 * from that snapshot and never writes, truncates, quarantines,
 * checkpoints, unlinks or drops a slot; its put(), checkpoint() and
 * compact() throw. Buckets are per-process heap memory, so the
 * snapshot is taken once at open: records the owner appends later are
 * misses here, never wrong answers.
 *
 * Crash points: `index.append`, `index.bucket_write`,
 * `index.checkpoint`, `index.split_journal`, `index.split_apply`,
 * `index.tail_repair` — every mutation site, so the kill-anywhere
 * matrix covers this engine like the rest of the persistence stack.
 */

#ifndef DAVF_STORE_INDEX_STORE_HH
#define DAVF_STORE_INDEX_STORE_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "store/hash_index.hh"
#include "store/segment_file.hh"

namespace davf::store {

/** Monotonic counters + shape snapshot of one indexed tier. */
struct IndexStoreStats
{
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t corrupt = 0;     ///< Damaged frames/records (slot dropped).
    uint64_t future = 0;      ///< Future-version records (slot kept).
    uint64_t collisions = 0;  ///< Full-key mismatch on a hash match.
    uint64_t appends = 0;
    uint64_t replayed = 0;    ///< Tail frames re-inserted at open.
    uint64_t rebuilds = 0;    ///< Full index rebuilds.
    uint64_t tailRepairs = 0; ///< Torn segment tails quarantined.
    uint64_t checkpoints = 0;
    uint64_t checkpointFailures = 0;

    uint64_t keys = 0;         ///< Live index entries.
    uint64_t buckets = 0;
    uint64_t depth = 0;        ///< Directory global depth.
    uint64_t splits = 0;
    uint64_t segmentBytes = 0; ///< Data file logical size.

    bool operator==(const IndexStoreStats &) const = default;
};

/** The combined segment-file + hash-index tier (see file comment). */
class IndexStore
{
  public:
    struct Options
    {
        std::string dir;

        /** fdatasync every segment append (off for bulk loads). */
        bool syncAppends = true;

        /** Appends between automatic checkpoints. */
        uint64_t checkpointInterval = 4096;
    };

    /** Does @p dir hold an indexed tier (an index.davf)? */
    static bool present(const std::string &dir);

    /**
     * Open (creating, rebuilding, repairing as needed — see crash
     * model above), or read-only when another process holds the index
     * lock (see exclusivity above). Throws DavfError{Io} when the
     * directory is unusable.
     */
    explicit IndexStore(Options options);

    /** Checkpoints (best effort, owner only) and releases the lock. */
    ~IndexStore();

    IndexStore(const IndexStore &) = delete;
    IndexStore &operator=(const IndexStore &) = delete;

    enum class LookupStatus : uint8_t {
        Hit,
        Miss,
        Corrupt,   ///< Damaged record dropped from the index.
        Collision, ///< A different key's record owns this hash.
        Future,    ///< Record from a newer grammar; slot kept intact.
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

    /** Look @p key up. Lock-free against the writer; never throws. */
    LookupResult lookup(const std::string &key);

    /**
     * Persist @p payload under @p key. Throws DavfError{Io} on an
     * append/insert failure or when readOnly() (the caller counts it,
     * warns, and keeps serving from memory). A *checkpoint* failure
     * after a successful append is counted and swallowed.
     */
    void put(const std::string &key, const std::string &payload);

    /**
     * Persist an already-serialized record (migration — preserves the
     * original bytes exactly). @p record must be the canonical
     * serialized form of (@p key, its payload).
     */
    void putRecord(const std::string &key, const std::string &record);

    /** Force a durability checkpoint now. Throws DavfError{Io}. */
    void checkpoint();

    /**
     * Rewrite the segment file keeping only the records the index
     * serves (the newest frame per key), dropping superseded
     * duplicates, damaged frames, and quarantined-tail leftovers,
     * then rebuild the index over the compact file. Returns segment
     * bytes reclaimed. Crash-safe: the stale index is unlinked before
     * the rewritten file replaces the old one, so dying anywhere
     * reopens into a rebuild of whichever data file the rename left
     * behind. Fires the `compact.rewrite` crash point. Throws
     * DavfError{Io}.
     */
    uint64_t compact();

    /** Enumerate live index slots (fsck/compact cross-checks). */
    void forEachSlot(
        const std::function<void(const BucketSlot &)> &fn) const;

    IndexStoreStats stats() const;

    const std::string &dir() const { return storeDir; }

  private:
    void openOrRecover();
    void rebuild();
    uint64_t replayTail(uint64_t from);
    void repairTornTail(uint64_t offset, uint64_t end);
    void putLocked(const std::string &key, const std::string &record);
    void maybeCheckpointLocked();
    void checkpointLockedFree();
    void refreshShapeGauges();

    Options options;
    std::string storeDir;
    int lockFd = -1;
    bool readOnlySnapshot = false; ///< Lost the lock (see exclusivity).

    mutable std::mutex writerMutex;
    SegmentFile segments;
    HashIndex index;
    uint64_t appendsSinceCheckpoint = 0;

    mutable std::mutex statsMutex;
    IndexStoreStats counters;
};

} // namespace davf::store

#endif // DAVF_STORE_INDEX_STORE_HH
