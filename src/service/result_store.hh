/**
 * @file
 * The persistent content-addressed result store behind davf_serve.
 *
 * A record maps a **store key** — the workspace build fingerprint plus
 * the serialized shard spec (structure, d, cycle, wire range, sampling
 * knobs) — to the shard's outcome payload in the exact hexfloat outcome
 * codec (core/shard.hh), so a served result aggregates bit-identically
 * to a freshly computed one. Records are appended and synced one by
 * one, which makes the store a campaign's record of progress too: a
 * rerun over the same directory computes only the missing shards.
 *
 * Tiers:
 *  - an in-memory LRU map (bounded entry count) absorbs the hot set;
 *  - a persistent disk tier: one append-only segment data file, found
 *    through an in-memory key directory that every open rebuilds with
 *    one scan of it (store/index_store.hh) — O(1) lookups.
 *
 * One process owns a store directory (the `index.lock` flock). The
 * owner migrates any legacy per-file records (`r-*.rec`, written by
 * older releases) into the segment file once at open
 * (store/migrate.hh). A process that loses the lock opens the same
 * store **read-only**: it
 * serves the records published before its open, and its store() calls
 * fill only the memory tier (counted as `unpublishedWrites`).
 *
 * Loads are corruption-tolerant: a truncated, wrong-version, or otherwise
 * unparseable record — and a hash-collision record whose embedded key
 * disagrees — is reported as a miss (tallied in StoreStats), so the
 * caller recomputes and the rewrite repairs the store; the owner also
 * drops a damaged record's directory entry. Nothing in this class ever
 * throws on a damaged record, and a failed record *publish* (full
 * disk, I/O error) is likewise swallowed after counting — the memory
 * tier still serves the result. Only an uncreatable store directory
 * surfaces as DavfError{Io}.
 *
 * The publish path carries the `store.publish` crash point
 * (util/crashpoint.hh); the disk tier adds the `index.*` family.
 * Offline checking lives in store/index_fsck.hh, behind the
 * `davf_store` CLI.
 */

#ifndef DAVF_SERVICE_RESULT_STORE_HH
#define DAVF_SERVICE_RESULT_STORE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "store/index_store.hh"
#include "util/error.hh"

namespace davf::service {

/** Monotonic counters (and two gauges) describing one store. */
struct StoreStats
{
    uint64_t memoryHits = 0;     ///< Served from the LRU tier.
    uint64_t diskHits = 0;       ///< Served from the disk tier.
    uint64_t misses = 0;         ///< No (usable) record existed.
    uint64_t evictions = 0;      ///< LRU entries displaced.
    uint64_t corruptRecords = 0; ///< Unreadable records treated as misses.
    uint64_t futureRecords = 0;  ///< Newer-grammar records; miss, kept.
    uint64_t writes = 0;         ///< Records persisted.
    uint64_t writeFailures = 0;  ///< Publishes that failed (non-fatal).
    uint64_t unpublishedWrites = 0; ///< Memory-only: store is read-only.

    uint64_t lruEntries = 0;     ///< Gauge: entries in the LRU tier now.
    uint64_t lruBytes = 0;       ///< Gauge: key+payload bytes held now.

    bool operator==(const StoreStats &) const = default;
};

/** The two-tier persistent result store (see file comment). */
class ResultStore
{
  public:
    static constexpr uint32_t kVersion = 2;

    struct Options
    {
        /** Record directory; empty keeps the store memory-only. */
        std::string dir;

        /** LRU tier capacity in entries (0 disables the tier). */
        size_t memCapacity = 4096;
    };

    explicit ResultStore(Options options);

    /**
     * The payload stored under @p key, or nullopt (a miss — including
     * a corrupt or mismatched record, which the next store() repairs).
     * Keys and payloads must be single-line strings.
     */
    std::optional<std::string> lookup(const std::string &key);

    /**
     * Persist @p payload under @p key (memory tier + disk tier; the
     * memory tier only when the disk tier is read-only).
     * @p text_version picks the record grammar revision on disk: 2 for
     * plain payloads (byte-identical to every earlier release), 3 for
     * payloads carrying an attribution section, so old binaries see a
     * clean future-version miss instead of a checksum surprise.
     */
    void store(const std::string &key, const std::string &payload,
               uint32_t text_version = 2);

    StoreStats stats() const;

    /** Is there a disk tier (read-only or owned)? */
    bool indexed() const { return index != nullptr; }

    /** Disk-tier counters; nullopt for memory-only stores. */
    std::optional<davf::store::IndexStoreStats> indexStats() const;

    /**
     * @name Record text form (exposed for tests and fuzzing)
     * A record is "davf-store v2\nkey <key>\npayload <payload>\n"
     * "sum <fnv1a of key\\npayload>\nend\n". parseRecord returns the
     * (key, payload) pair or an Err for any damage: bad magic, unknown
     * version, missing fields, checksum mismatch (a garbled byte),
     * missing end sentinel (a torn write), trailing garbage. Both
     * delegate to store/layout.hh.
     */
    /// @{
    static std::string serializeRecord(const std::string &key,
                                       const std::string &payload,
                                       uint32_t text_version = 2);
    static Result<std::pair<std::string, std::string>>
    parseRecord(const std::string &text);
    /// @}

  private:
    /** Insert into the LRU tier, evicting beyond capacity. */
    void remember(const std::string &key, const std::string &payload);

    Options options;
    std::unique_ptr<davf::store::IndexStore> index;

    mutable std::mutex mutex;
    /** Most recent at the front. */
    std::list<std::pair<std::string, std::string>> lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, std::string>>::iterator>
        lruIndex;
    uint64_t lruBytes = 0; ///< Sum of key+payload sizes in `lru`.
    StoreStats counters;
};

} // namespace davf::service

#endif // DAVF_SERVICE_RESULT_STORE_HH
