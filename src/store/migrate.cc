#include "migrate.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.hh"
#include "store/index_store.hh"
#include "store/layout.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf::store {

namespace {

namespace fs = std::filesystem;

struct MigrateMetrics
{
    obs::Counter migrated{"store.index.migrated_records"};
    obs::Counter quarantined{"store.index.migrate_quarantined"};
    obs::Gauge remaining{"store.index.migrate_remaining"};
};

MigrateMetrics &
migrateMetrics()
{
    static MigrateMetrics *const metrics = new MigrateMetrics();
    return *metrics;
}

/** Move @p path into <dir>/quarantine/ without clobbering. */
void
quarantineFile(const std::string &dir, const fs::path &path)
{
    const fs::path qdir = fs::path(dir) / "quarantine";
    std::error_code ec;
    fs::create_directories(qdir, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot create '", qdir.string(),
                   "': ", ec.message());
    }
    fs::path target = qdir / path.filename();
    for (int n = 1; fs::exists(target, ec); ++n) {
        target = qdir
            / (path.filename().string() + "." + std::to_string(n));
    }
    fs::rename(path, target, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot quarantine '", path.string(),
                   "': ", ec.message());
    }
}

} // namespace

MigrateReport
migrateLegacyRecords(IndexStore &store)
{
    static const crashpoint::CrashPoint migrate_point("index.migrate");

    store.requireOwner();
    const std::string &dir = store.dir();
    MigrateReport report;
    std::vector<fs::path> candidates;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        const std::string name = it->path().filename().string();
        if (isLegacyRecordName(name))
            candidates.push_back(it->path());
        else
            ++report.foreign;
    }
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot enumerate store dir '", dir,
                   "': ", ec.message());
    }
    if (candidates.empty())
        return report;
    std::sort(candidates.begin(), candidates.end());

    MigrateMetrics &metrics = migrateMetrics();
    metrics.remaining.set(static_cast<int64_t>(candidates.size()));

    for (const fs::path &path : candidates) {
        std::ifstream file(path, std::ios::binary);
        std::ostringstream contents;
        if (file)
            contents << file.rdbuf();
        auto parsed = parseRecordText(contents.str());
        if (!file || !parsed) {
            // Damaged legacy record: evidence, never deleted.
            quarantineFile(dir, path);
            ++report.quarantined;
            metrics.quarantined.add(1);
            metrics.remaining.add(-1);
            continue;
        }
        const std::string &key = parsed.value().first;
        const std::string &payload = parsed.value().second;

        // The record's legacy file may only disappear once the index
        // serves the key. If the index already does (an interrupted
        // earlier migration, or the key was re-stored since), the
        // legacy copy is shadowed and redundant either way.
        const auto looked = store.lookup(key);
        if (looked.status == IndexStore::LookupStatus::Hit) {
            ++report.alreadyIndexed;
        } else {
            migrate_point.fire();
            // Re-canonicalize: lenient legacy parsing admits cosmetic
            // variants, the segment file stores exactly one form. The
            // payload bytes — the part replies are built from — are
            // preserved verbatim.
            store.putRecord(key, serializeRecordText(key, payload));
            ++report.migrated;
            metrics.migrated.add(1);
        }
        // The append above is durable (fdatasync) before this unlink,
        // so a crash between the two only re-runs the skip branch.
        fs::remove(path, ec);
        if (ec) {
            davf_warn("cannot remove migrated legacy record '",
                      path.string(), "': ", ec.message());
        }
        metrics.remaining.add(-1);
    }
    return report;
}

MigrateReport
migrateStore(const std::string &dir)
{
    // Opening the store creates its segment file if absent (and
    // tail-repairs as needed) — migration of an empty legacy directory
    // is just store creation.
    IndexStore store({.dir = dir});
    return migrateLegacyRecords(store);
}

} // namespace davf::store
