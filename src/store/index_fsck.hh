/**
 * @file
 * Offline integrity checking and compaction for the result store
 * (store/index_store.hh), behind the `davf_store` CLI.
 *
 * fsckIndexStore() classifies, without mutating anything:
 *
 *  - **garbled frame** a frame whose body checksum fails;
 *  - **torn tail**    unframeable bytes reaching segment EOF (a
 *                     half-written append);
 *  - **superseded**   older frames shadowed by a newer write for the
 *                     same hash — not damage, just reclaimable space;
 *  - **legacy strays** `r-*.rec` files alongside the segment file
 *                     (left by an older binary or an interrupted
 *                     migration; absorbed by the owner's next open,
 *                     migrate or compact);
 *  - **retired index files** an older release's `index.davf` or
 *                     `split.journal` — not damage; the owner's next
 *                     open removes them.
 *
 * With `repair` set, damage evidence is quarantined into
 * `<dir>/quarantine/` — never deleted — and garbled frames are zeroed
 * so later scans resync past them. A repaired store passes a
 * subsequent fsck; repair is idempotent and guarded by the
 * `fsck.repair` crash point.
 *
 * compactIndexStoreDir() is repair plus space recovery: absorb legacy
 * strays, quarantine damage, then rewrite the segment file keeping
 * only live records (IndexStore::compact, `compact.rewrite` crash
 * point).
 */

#ifndef DAVF_STORE_INDEX_FSCK_HH
#define DAVF_STORE_INDEX_FSCK_HH

#include <cstdint>
#include <string>
#include <vector>

namespace davf::store {

/** What an index-store fsck or compact pass found (and did). */
struct IndexFsckReport
{
    uint64_t validFrames = 0;   ///< Newest valid frame of each key.
    uint64_t superseded = 0;    ///< Valid but shadowed by newer frames.
    uint64_t garbledFrames = 0; ///< Body checksum failures.
    uint64_t tornTailBytes = 0; ///< Unframeable bytes at segment EOF.
    uint64_t legacyStrays = 0;  ///< r-*.rec files awaiting absorption.
    uint64_t foreign = 0;       ///< Everything else (counted, ignored).

    uint64_t quarantined = 0;   ///< Evidence files written by repair.
    uint64_t migrated = 0;      ///< Strays absorbed (compact).
    uint64_t reclaimedBytes = 0; ///< Segment bytes freed (compact).

    /** Human-readable findings, one line each, deterministic order. */
    std::vector<std::string> notes;

    /**
     * Nothing needs repair. Legacy strays, retired index files and
     * superseded frames do not block cleanliness: the owner's open,
     * migration and compaction tidy them.
     */
    bool clean() const;
};

struct IndexFsckOptions
{
    bool repair = false;
};

/**
 * Check (and with options.repair, repair) the indexed store at
 * @p dir. Classification opens nothing for writing; repair takes the
 * index lock (throws DavfError{Io} if a live server holds it).
 */
IndexFsckReport fsckIndexStore(const std::string &dir,
                               const IndexFsckOptions &options = {});

/**
 * Repair @p dir and recover space: absorb legacy strays, quarantine
 * damage, rewrite the segment file to live records only. Crash-safe and idempotent. Throws DavfError{Io} if the dir
 * is unusable or locked by a live server.
 */
IndexFsckReport compactIndexStoreDir(const std::string &dir);

} // namespace davf::store

#endif // DAVF_STORE_INDEX_FSCK_HH
