/**
 * @file
 * The persistent extendible-hash index over the segment data file
 * (`index.davf`, layout in store/layout.hh).
 *
 * Structure: a directory of 2^globalDepth entries (low hash bits)
 * pointing at fixed-size buckets; each bucket owns the hashes whose
 * low `localDepth` bits equal its `prefix` and holds up to
 * kSlotsPerBucket {hash, offset, size} slots. A full bucket splits
 * (doubling the directory when localDepth == globalDepth); the split
 * is journaled through util/atomic_file (`split.journal`) so a crash
 * mid-split is classified — never silently half-applied.
 *
 * Concurrency: **lock-free readers, one writer.**
 *  - Every bucket carries a version stamp (seqlock): writers make it
 *    odd, mutate, make it even; readers retry until they see a stable
 *    even version, then re-validate that the bucket still owns the
 *    hash (a split may have migrated it) against a freshly loaded
 *    directory.
 *  - The directory is an immutable vector published RCU-style through
 *    an atomic shared_ptr; doubling builds a new vector and swaps it.
 *  - Writers are serialized by an internal mutex.
 *
 * Persistence: buckets live in stable heap memory and are mirrored to
 * their disk pages on every mutation (write-through, no per-write
 * fsync); the header's `dataCommitted` watermark advances only at
 * checkpoint() after an fsync barrier. On load, anything suspicious —
 * bad header, bad bucket checksum, inconsistent directory coverage, a
 * leftover split journal — fails the load and the owner (IndexStore)
 * rebuilds from the data file. The index can therefore lose recent
 * entries across a crash (the owner replays the data tail) but can
 * never serve a wrong offset undetected: lookups verify the record
 * bytes and key independently.
 *
 * **Detached mirror.** An index created with an empty path, or loaded
 * with `mirror` off, lives in memory only: inserts and splits mutate
 * the buckets exactly as above but write no page, journal or header
 * (and fire none of their crash points). The read-only store of a
 * process that lost the index lock uses this to hold its snapshot.
 *
 * Lookup probes compare the slot's 16-bit fingerprint (top hash bits)
 * first, then the full hash; the full-*key* compare happens at the
 * caller after reading the record. Two distinct keys with equal
 * 64-bit hashes keep legacy-collision semantics: one entry wins, the
 * other key reads it, fails the key compare, and degrades to a miss.
 */

#ifndef DAVF_STORE_HASH_INDEX_HH
#define DAVF_STORE_HASH_INDEX_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/layout.hh"
#include "util/error.hh"

namespace davf::store {

/** The in-memory + write-through persistent hash index. */
class HashIndex
{
  public:
    /** Where a key's record frame lives (from a slot). */
    struct Candidate
    {
        uint64_t offset = 0;
        uint32_t size = 0;
    };

    /** What load() learned from a well-formed index file. */
    struct LoadInfo
    {
        bool clean = false;
        uint64_t dataCommitted = 0;
    };

    HashIndex() = default;
    ~HashIndex();

    HashIndex(const HashIndex &) = delete;
    HashIndex &operator=(const HashIndex &) = delete;

    /**
     * Create a fresh single-bucket index at @p path (truncating any
     * existing file) inside store directory @p dir (which holds the
     * split journal). An empty @p path creates a detached, memory-only
     * index (see file comment) and touches no file. Throws
     * DavfError{Io} on filesystem failure.
     */
    void create(const std::string &dir, const std::string &path);

    /**
     * Load an existing index file. Err{BadInput} for *any* structural
     * doubt (damaged header/page, bad directory coverage, leftover
     * split journal) — the caller falls back to create() + rebuild.
     * With @p mirror off the file is only read, and the loaded index
     * stays detached from it. Throws DavfError{Io} only if the file
     * cannot be read at all.
     */
    Result<LoadInfo> load(const std::string &dir, const std::string &path,
                          bool mirror = true);

    /**
     * The slot for @p hash, if present. Lock-free: safe concurrently
     * with one writer in insert()/remove()/split. When @p probes is
     * non-null it receives the number of slot fingerprints examined
     * (the store.index.probes_per_lookup histogram).
     */
    std::optional<Candidate> lookup(uint64_t hash,
                                    uint32_t *probes = nullptr) const;

    /**
     * Insert (or replace, when a slot with the same hash exists) the
     * mapping hash -> (offset, size), splitting buckets as needed.
     * Marks the on-disk header dirty before the first mutation after
     * a load/checkpoint. Throws DavfError{Io} on persistence failure.
     */
    void insert(uint64_t hash, uint64_t offset, uint32_t size);

    /** Drop the slot for @p hash if it points at @p offset (corrupt
     * record repair). Returns true if a slot was removed. */
    bool remove(uint64_t hash, uint64_t offset);

    /**
     * Durability barrier: fsync the mirrored pages and publish a
     * clean header carrying @p dataCommitted. After this, load()
     * trusts the pages and the owner only replays data past the
     * watermark. Fires the `index.checkpoint` crash point.
     */
    void checkpoint(uint64_t dataCommitted);

    /// @name Shape and traffic (gauges / fsck)
    /// @{
    uint32_t globalDepth() const;
    uint64_t bucketCount() const;
    uint64_t keyCount() const;
    uint64_t splits() const { return splitCount; }
    uint64_t dataCommitted() const { return committedWatermark; }
    /// @}

    /** Enumerate every live slot (fsck cross-checks, tests). */
    void forEachSlot(
        const std::function<void(const BucketSlot &)> &fn) const;

    void close();

  private:
    struct Bucket
    {
        std::atomic<uint64_t> version{0};
        uint32_t id = 0; ///< Page index (page 1 + id in the file).
        uint32_t localDepth = 0;
        uint64_t prefix = 0;
        uint32_t count = 0;
        BucketSlot slots[kSlotsPerBucket] = {};
    };

    /**
     * One directory table: 2^depth atomic bucket pointers. Entries
     * mutate in place (release stores) for non-doubling splits; a
     * doubling builds a bigger table and swaps the `table` pointer.
     * Superseded tables are retired, not freed, until close() — a
     * reader holding an old table only ever reaches a stale bucket,
     * which the seqlock + ownership re-check turns into a retry.
     */
    struct DirTable
    {
        explicit DirTable(size_t size) : entries(size) {}
        std::vector<std::atomic<Bucket *>> entries;
    };

    Bucket &newBucket(uint32_t localDepth, uint64_t prefix);
    void split(Bucket &bucket);
    void persistBucket(const Bucket &bucket);
    void persistHeader(bool clean, uint64_t dataCommitted);
    void markDirty();
    DirTable &growTable(uint32_t newDepth);

    int fd = -1;
    std::string filePath;
    std::string journalPath;

    mutable std::mutex writerMutex;
    std::deque<Bucket> buckets; ///< Stable addresses; grows only.
    std::deque<std::unique_ptr<DirTable>> tables; ///< All ever built.
    std::atomic<DirTable *> table{nullptr};       ///< Current one.
    uint32_t depth = 0;
    uint64_t liveKeys = 0;
    uint64_t splitCount = 0;
    uint64_t committedWatermark = 0;
    bool dirtyOnDisk = false;
};

} // namespace davf::store

#endif // DAVF_STORE_HASH_INDEX_HH
