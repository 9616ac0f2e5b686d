/**
 * @file
 * Legacy-to-index store migration: the only code that reads legacy
 * per-file records (`r-*.rec`).
 *
 * migrateLegacyRecords() absorbs every legacy record in a store
 * directory into its indexed tier, preserving record bytes exactly
 * (the segment file stores the same v2 text), then removes the
 * absorbed legacy file. Damaged legacy records are quarantined into
 * `<dir>/quarantine/` — never deleted. The pass is idempotent and
 * crash-safe: a record's legacy file is unlinked only after its frame
 * is durable in the segment file, so killing a migration anywhere
 * leaves every record either indexed or still in its legacy file, and
 * a rerun finishes the job. The owning ResultStore runs it at open
 * (so existing legacy directories keep working); `davf_store migrate`
 * runs it offline.
 *
 * The per-record `index.migrate` crash point makes migration part of
 * the kill-anywhere matrix; `store.index.migrated_records` /
 * `store.index.migrate_remaining` report progress to the obs registry.
 */

#ifndef DAVF_STORE_MIGRATE_HH
#define DAVF_STORE_MIGRATE_HH

#include <cstdint>
#include <string>

namespace davf::store {

class IndexStore;

/** What one migration pass did. */
struct MigrateReport
{
    uint64_t migrated = 0;    ///< Legacy records absorbed + unlinked.
    uint64_t alreadyIndexed = 0; ///< Skipped: index already serves them.
    uint64_t quarantined = 0; ///< Damaged legacy records moved aside.
    uint64_t foreign = 0;     ///< Non-record entries left untouched.
};

/**
 * Migrate the legacy records in @p store's directory into @p store
 * (see file comment). A directory without legacy records is left
 * untouched. Throws DavfError{Io} if the directory is unreadable or
 * @p store is read-only (another process owns it).
 */
MigrateReport migrateLegacyRecords(IndexStore &store);

/** Open the store at @p dir (creating the indexed tier if absent) and
 * migrate it. Throws DavfError{Io} if the directory is unusable or
 * another process owns the store. */
MigrateReport migrateStore(const std::string &dir);

} // namespace davf::store

#endif // DAVF_STORE_MIGRATE_HH
