#include "result_store.hh"

#include <filesystem>

#include "obs/metrics.hh"
#include "store/layout.hh"
#include "store/migrate.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf::service {

namespace {

/** Store metric handles, mirroring StoreStats (docs/OBSERVABILITY.md). */
struct StoreMetrics
{
    obs::Counter memoryHits{"store.memory_hits"};
    obs::Counter diskHits{"store.disk_hits"};
    obs::Counter misses{"store.misses"};
    obs::Counter evictions{"store.evictions"};
    obs::Counter corruptRecords{"store.corrupt_records"};
    obs::Counter futureRecords{"store.future_records"};
    obs::Counter writes{"store.writes"};
    obs::Counter writeFailures{"store.write_failures"};
    obs::Counter unpublishedWrites{"store.unpublished_writes"};
    obs::Gauge lruEntries{"store.lru_entries"};
    obs::Gauge lruBytes{"store.lru_bytes"};
};

StoreMetrics &
storeMetrics()
{
    static StoreMetrics *const metrics = new StoreMetrics();
    return *metrics;
}

} // namespace

ResultStore::ResultStore(Options the_options)
    : options(std::move(the_options))
{
    if (options.dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(options.dir, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot create store dir '",
                   options.dir, "': ", ec.message());
    }

    try {
        index = std::make_unique<davf::store::IndexStore>(
            davf::store::IndexStore::Options{.dir = options.dir});
    } catch (const DavfError &error) {
        davf_warn("cannot open store in '", options.dir,
                  "' (serving from memory only): ", error.what());
        return;
    }
    if (index->readOnly()) {
        davf_warn("another process owns the store in '", options.dir,
                  "': serving its records read-only, new results stay "
                  "in memory");
        return;
    }
    try {
        davf::store::migrateLegacyRecords(*index);
    } catch (const DavfError &error) {
        davf_warn("cannot migrate legacy records in '", options.dir,
                  "' (a rerun of 'davf_store migrate' finishes it): ",
                  error.what());
    }
}

std::string
ResultStore::serializeRecord(const std::string &key,
                             const std::string &payload,
                             uint32_t text_version)
{
    return davf::store::serializeRecordText(key, payload, text_version);
}

Result<std::pair<std::string, std::string>>
ResultStore::parseRecord(const std::string &text)
{
    return davf::store::parseRecordText(text);
}

void
ResultStore::remember(const std::string &key, const std::string &payload)
{
    // Caller holds the mutex.
    if (options.memCapacity == 0)
        return;
    auto it = lruIndex.find(key);
    if (it != lruIndex.end()) {
        lruBytes += payload.size();
        lruBytes -= it->second->second.size();
        it->second->second = payload;
        lru.splice(lru.begin(), lru, it->second);
    } else {
        lru.emplace_front(key, payload);
        lruIndex[key] = lru.begin();
        lruBytes += key.size() + payload.size();
        while (lru.size() > options.memCapacity) {
            lruBytes -=
                lru.back().first.size() + lru.back().second.size();
            lruIndex.erase(lru.back().first);
            lru.pop_back();
            ++counters.evictions;
            storeMetrics().evictions.add(1);
        }
    }
    storeMetrics().lruEntries.set(static_cast<int64_t>(lru.size()));
    storeMetrics().lruBytes.set(static_cast<int64_t>(lruBytes));
}

std::optional<std::string>
ResultStore::lookup(const std::string &key)
{
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (auto it = lruIndex.find(key); it != lruIndex.end()) {
            ++counters.memoryHits;
            storeMetrics().memoryHits.add(1);
            lru.splice(lru.begin(), lru, it->second);
            return it->second->second;
        }
    }

    if (index != nullptr) {
        using Status = davf::store::IndexStore::LookupStatus;
        auto looked = index->lookup(key);
        switch (looked.status) {
          case Status::Hit: {
            const std::lock_guard<std::mutex> lock(mutex);
            ++counters.diskHits;
            storeMetrics().diskHits.add(1);
            remember(key, looked.payload);
            return std::move(looked.payload);
          }
          case Status::Future: {
            // Written by a newer binary sharing this directory: a
            // miss, not damage.
            const std::lock_guard<std::mutex> lock(mutex);
            ++counters.futureRecords;
            storeMetrics().futureRecords.add(1);
            break;
          }
          case Status::Corrupt:
          case Status::Collision: {
            const std::lock_guard<std::mutex> lock(mutex);
            ++counters.corruptRecords;
            storeMetrics().corruptRecords.add(1);
            break;
          }
          case Status::Miss:
            break;
        }
    }

    const std::lock_guard<std::mutex> lock(mutex);
    ++counters.misses;
    storeMetrics().misses.add(1);
    return std::nullopt;
}

void
ResultStore::store(const std::string &key, const std::string &payload,
                   uint32_t text_version)
{
    {
        const std::lock_guard<std::mutex> lock(mutex);
        remember(key, payload);
        if (index != nullptr && index->readOnly()) {
            ++counters.unpublishedWrites;
            storeMetrics().unpublishedWrites.add(1);
            return;
        }
    }
    // A failed publish (ENOSPC, EIO, armed crash point) is counted and
    // swallowed: the result was computed and still reaches the caller
    // through the memory tier — a full disk must degrade a
    // serve/campaign to cache misses, never kill it.
    if (index != nullptr) {
        try {
            static const crashpoint::CrashPoint publish_point(
                "store.publish");
            publish_point.fire();
            if (text_version == davf::store::kRecordTextVersion)
                index->put(key, payload);
            else
                index->putRecord(key, serializeRecord(key, payload,
                                                      text_version));
        } catch (const DavfError &error) {
            const std::lock_guard<std::mutex> lock(mutex);
            ++counters.writeFailures;
            storeMetrics().writeFailures.add(1);
            davf_warn("store record publish to '", options.dir,
                      "' failed (serving from memory): ", error.what());
            return;
        }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    ++counters.writes;
    storeMetrics().writes.add(1);
}

StoreStats
ResultStore::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    StoreStats snapshot = counters;
    snapshot.lruEntries = lru.size();
    snapshot.lruBytes = lruBytes;
    return snapshot;
}

std::optional<davf::store::IndexStoreStats>
ResultStore::indexStats() const
{
    if (index == nullptr)
        return std::nullopt;
    return index->stats();
}

} // namespace davf::service
