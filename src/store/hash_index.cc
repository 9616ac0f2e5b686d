#include "hash_index.hh"

#include <cerrno>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/atomic_file.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf::store {

namespace {

/**
 * Relaxed atomic load/store over plainly-declared bucket fields. The
 * seqlock makes torn reads harmless (the version re-check discards
 * them); atomic_ref makes them defined behaviour.
 */
template <typename T>
T
relaxedLoad(const T &value)
{
    return std::atomic_ref<T>(const_cast<T &>(value))
        .load(std::memory_order_relaxed);
}

template <typename T>
void
relaxedStore(T &value, T next)
{
    std::atomic_ref<T>(value).store(next, std::memory_order_relaxed);
}

bool
pwriteAll(int fd, std::string_view bytes, uint64_t offset)
{
    size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n = ::pwrite(fd, bytes.data() + done,
                                   bytes.size() - done,
                                   static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

bool
preadAll(int fd, char *out, size_t size, uint64_t offset)
{
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::pread(fd, out + done, size - done,
                                  static_cast<off_t>(offset + done));
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

/** Depth cap: the directory never exceeds 2^31 entries. */
constexpr uint32_t kMaxDepth = 31;

constexpr uint64_t
depthMask(uint32_t localDepth)
{
    return localDepth >= 64 ? ~0ull : ((1ull << localDepth) - 1ull);
}

} // namespace

HashIndex::~HashIndex()
{
    close();
}

void
HashIndex::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
    buckets.clear();
    tables.clear();
    table.store(nullptr, std::memory_order_relaxed);
    depth = 0;
    liveKeys = 0;
    committedWatermark = 0;
    dirtyOnDisk = false;
}

HashIndex::Bucket &
HashIndex::newBucket(uint32_t localDepth, uint64_t prefix)
{
    Bucket &bucket = buckets.emplace_back();
    bucket.id = static_cast<uint32_t>(buckets.size() - 1);
    bucket.localDepth = localDepth;
    bucket.prefix = prefix;
    return bucket;
}

HashIndex::DirTable &
HashIndex::growTable(uint32_t newDepth)
{
    auto &next = tables.emplace_back(
        std::make_unique<DirTable>(size_t(1) << newDepth));
    return *next;
}

void
HashIndex::create(const std::string &dir, const std::string &path)
{
    close();
    filePath = path;
    journalPath = dir + "/" + kSplitJournalName;
    Bucket &root = newBucket(0, 0);
    DirTable &t = growTable(0);
    t.entries[0].store(&root, std::memory_order_relaxed);
    table.store(&t, std::memory_order_release);
    depth = 0;
    if (path.empty())
        return; // Detached: memory only.
    // A leftover journal belongs to the index file being replaced.
    ::unlink(journalPath.c_str());
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                0644);
    if (fd < 0) {
        davf_throw(ErrorKind::Io, "cannot create index file '", path,
                   "': ", std::strerror(errno));
    }
    dirtyOnDisk = true;
    persistHeader(false, 0);
    persistBucket(root);
}

Result<HashIndex::LoadInfo>
HashIndex::load(const std::string &dir, const std::string &path,
                bool mirror)
{
    using R = Result<LoadInfo>;
    close();
    filePath = path;
    journalPath = dir + "/" + kSplitJournalName;

    struct stat journalStat{};
    if (::stat(journalPath.c_str(), &journalStat) == 0) {
        return R::Err(ErrorKind::BadInput,
                      "index: split journal present (torn split)");
    }

    fd = ::open(path.c_str(), (mirror ? O_RDWR : O_RDONLY) | O_CLOEXEC);
    if (fd < 0) {
        const int saved = errno;
        if (saved == ENOENT)
            return R::Err(ErrorKind::BadInput, "index: no index file");
        davf_throw(ErrorKind::Io, "cannot open index file '", path,
                   "': ", std::strerror(saved));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int saved = errno;
        close();
        davf_throw(ErrorKind::Io, "cannot stat index file '", path,
                   "': ", std::strerror(saved));
    }
    const uint64_t fileSize = static_cast<uint64_t>(st.st_size);
    if (fileSize < kPageSize) {
        close();
        return R::Err(ErrorKind::BadInput, "index: short file");
    }

    std::string page(kPageSize, '\0');
    if (!preadAll(fd, page.data(), page.size(), 0)) {
        close();
        return R::Err(ErrorKind::BadInput, "index: unreadable header");
    }
    auto header = parseIndexHeader(page);
    if (!header) {
        close();
        return R::Err(header.error());
    }

    // Every full page after the header is a bucket; a torn trailing
    // partial page (or any page that fails its checksum) fails the
    // load — the owner rebuilds from the data file.
    const uint64_t pageCount = fileSize / kPageSize - 1;
    if (pageCount == 0 || pageCount < header.value().bucketPages) {
        close();
        return R::Err(ErrorKind::BadInput,
                      "index: fewer bucket pages than header claims");
    }
    uint32_t maxDepth = header.value().globalDepth;
    for (uint64_t id = 0; id < pageCount; ++id) {
        if (!preadAll(fd, page.data(), page.size(),
                      (id + 1) * kPageSize)) {
            close();
            return R::Err(ErrorKind::BadInput,
                          "index: unreadable bucket page");
        }
        auto image = parseBucketPage(page);
        if (!image) {
            close();
            return R::Err(image.error());
        }
        Bucket &bucket = newBucket(image.value().localDepth,
                                   image.value().prefix);
        bucket.count = image.value().count;
        std::memcpy(bucket.slots, image.value().slots,
                    sizeof(bucket.slots));
        if (bucket.localDepth > maxDepth)
            maxDepth = bucket.localDepth;
        liveKeys += bucket.count;
    }
    if (maxDepth > kMaxDepth) {
        close();
        return R::Err(ErrorKind::BadInput, "index: insane depth");
    }

    // Rebuild the directory purely from bucket (prefix, localDepth)
    // pairs and require exact coverage: every directory entry owned by
    // exactly one bucket. Anything else is a stale directory.
    DirTable &t = growTable(maxDepth);
    for (Bucket &bucket : buckets) {
        if (bucket.localDepth > maxDepth
            || (bucket.prefix & ~depthMask(bucket.localDepth)) != 0) {
            close();
            return R::Err(ErrorKind::BadInput,
                          "index: bucket shape out of range");
        }
        const uint64_t step = 1ull << bucket.localDepth;
        for (uint64_t i = bucket.prefix; i < t.entries.size();
             i += step) {
            if (t.entries[i].load(std::memory_order_relaxed)
                != nullptr) {
                close();
                return R::Err(ErrorKind::BadInput,
                              "index: overlapping directory coverage");
            }
            t.entries[i].store(&bucket, std::memory_order_relaxed);
        }
    }
    for (const auto &entry : t.entries) {
        if (entry.load(std::memory_order_relaxed) == nullptr) {
            close();
            return R::Err(ErrorKind::BadInput,
                          "index: directory hole (stale directory)");
        }
    }
    table.store(&t, std::memory_order_release);
    depth = maxDepth;
    committedWatermark = header.value().dataCommitted;
    dirtyOnDisk = !header.value().clean;
    if (!mirror) {
        ::close(fd);
        fd = -1;
    }
    return R::Ok(LoadInfo{header.value().clean,
                          header.value().dataCommitted});
}

std::optional<HashIndex::Candidate>
HashIndex::lookup(uint64_t hash, uint32_t *probes) const
{
    const uint16_t fp = fingerprint(hash);
    uint32_t probed = 0;
    for (int attempt = 0; attempt < 2048; ++attempt) {
        DirTable *t = table.load(std::memory_order_acquire);
        if (t == nullptr)
            return std::nullopt;
        Bucket *bucket = t->entries[hash & (t->entries.size() - 1)]
                             .load(std::memory_order_acquire);
        if (bucket == nullptr)
            return std::nullopt;

        const uint64_t v1 =
            bucket->version.load(std::memory_order_acquire);
        if (v1 & 1) {
            std::this_thread::yield();
            continue;
        }
        uint32_t count = relaxedLoad(bucket->count);
        if (count > kSlotsPerBucket)
            count = kSlotsPerBucket;
        const uint32_t localDepth = relaxedLoad(bucket->localDepth);
        const uint64_t prefix = relaxedLoad(bucket->prefix);
        Candidate candidate;
        bool found = false;
        for (uint32_t i = 0; i < count; ++i) {
            const uint64_t slotHash =
                relaxedLoad(bucket->slots[i].hash);
            ++probed;
            // The 16-bit fingerprint probe: reject most non-matching
            // slots on the top bits before the full compare.
            if (fingerprint(slotHash) != fp || slotHash != hash)
                continue;
            candidate.offset = relaxedLoad(bucket->slots[i].offset);
            candidate.size = relaxedLoad(bucket->slots[i].size);
            found = true;
            break;
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (bucket->version.load(std::memory_order_relaxed) != v1)
            continue; // A writer touched the bucket; retry.
        if (localDepth > kMaxDepth + 1
            || (hash & depthMask(localDepth)) != prefix) {
            // Stable read, but of a bucket that no longer owns this
            // hash (a split migrated it). Reload the directory.
            std::this_thread::yield();
            continue;
        }
        if (probes != nullptr)
            *probes = probed;
        return found ? std::optional<Candidate>(candidate)
                     : std::nullopt;
    }
    if (probes != nullptr)
        *probes = probed;

    // Pathological contention: fall back to an exclusive read.
    const std::lock_guard<std::mutex> lock(writerMutex);
    DirTable *t = table.load(std::memory_order_acquire);
    if (t == nullptr)
        return std::nullopt;
    Bucket *bucket = t->entries[hash & (t->entries.size() - 1)]
                         .load(std::memory_order_acquire);
    for (uint32_t i = 0; i < bucket->count; ++i) {
        if (bucket->slots[i].hash == hash)
            return Candidate{bucket->slots[i].offset,
                             bucket->slots[i].size};
    }
    return std::nullopt;
}

void
HashIndex::insert(uint64_t hash, uint64_t offset, uint32_t size)
{
    const std::lock_guard<std::mutex> lock(writerMutex);
    davf_assert(table.load(std::memory_order_relaxed) != nullptr,
                "insert into a closed index");
    markDirty();
    for (;;) {
        DirTable *t = table.load(std::memory_order_relaxed);
        Bucket &bucket =
            *t->entries[hash & (t->entries.size() - 1)].load(
                std::memory_order_relaxed);

        // Replace in place when the hash is already present (a
        // re-stored key, a tail replay, or a 64-bit hash collision —
        // the latter keeps legacy last-write-wins semantics).
        for (uint32_t i = 0; i < bucket.count; ++i) {
            if (bucket.slots[i].hash != hash)
                continue;
            bucket.version.fetch_add(1, std::memory_order_acq_rel);
            relaxedStore(bucket.slots[i].offset, offset);
            relaxedStore(bucket.slots[i].size, size);
            bucket.version.fetch_add(1, std::memory_order_release);
            persistBucket(bucket);
            return;
        }

        if (bucket.count < kSlotsPerBucket) {
            bucket.version.fetch_add(1, std::memory_order_acq_rel);
            relaxedStore(bucket.slots[bucket.count].hash, hash);
            relaxedStore(bucket.slots[bucket.count].offset, offset);
            relaxedStore(bucket.slots[bucket.count].size, size);
            relaxedStore(bucket.slots[bucket.count].reserved, 0u);
            relaxedStore(bucket.count, bucket.count + 1);
            bucket.version.fetch_add(1, std::memory_order_release);
            ++liveKeys;
            persistBucket(bucket);
            return;
        }

        if (bucket.localDepth >= kMaxDepth) {
            // 169 distinct 64-bit hashes sharing 31 low bits: not a
            // real workload. Sacrifice the oldest slot rather than
            // grow without bound; the evicted key degrades to a miss.
            davf_warn("hash index bucket overflow at depth cap; "
                      "evicting a slot");
            bucket.version.fetch_add(1, std::memory_order_acq_rel);
            relaxedStore(bucket.slots[0].hash, hash);
            relaxedStore(bucket.slots[0].offset, offset);
            relaxedStore(bucket.slots[0].size, size);
            bucket.version.fetch_add(1, std::memory_order_release);
            persistBucket(bucket);
            return;
        }

        split(bucket);
    }
}

void
HashIndex::split(Bucket &bucket)
{
    static const crashpoint::CrashPoint journal_point(
        "index.split_journal");
    static const crashpoint::CrashPoint apply_point(
        "index.split_apply");

    const uint32_t oldDepth = bucket.localDepth;
    const bool mirrored = fd >= 0;

    // Journal first, through the atomic tmp+rename discipline: from
    // here until both bucket pages are durable, a crash leaves the
    // journal behind and the next open (or fsck) classifies a torn
    // split and rebuilds instead of trusting half-applied pages.
    if (mirrored) {
        journal_point.fire();
        writeFileAtomic(journalPath,
                        "split page=" + std::to_string(bucket.id)
                            + " new=" + std::to_string(buckets.size())
                            + " depth=" + std::to_string(oldDepth + 1)
                            + "\n");
    }

    Bucket &sibling =
        newBucket(oldDepth + 1, bucket.prefix | (1ull << oldDepth));

    // Partition the slots under the seqlock. The sibling is invisible
    // to readers until the directory publishes it below.
    bucket.version.fetch_add(1, std::memory_order_acq_rel);
    uint32_t keep = 0;
    for (uint32_t i = 0; i < bucket.count; ++i) {
        const BucketSlot slot = bucket.slots[i];
        if ((slot.hash >> oldDepth) & 1) {
            sibling.slots[sibling.count++] = slot;
        } else {
            relaxedStore(bucket.slots[keep].hash, slot.hash);
            relaxedStore(bucket.slots[keep].offset, slot.offset);
            relaxedStore(bucket.slots[keep].size, slot.size);
            ++keep;
        }
    }
    relaxedStore(bucket.count, keep);
    relaxedStore(bucket.localDepth, oldDepth + 1);
    bucket.version.fetch_add(1, std::memory_order_release);

    // Publish the sibling in the directory: in place for a plain
    // split, or via a doubled table swapped in RCU-style.
    DirTable *t = table.load(std::memory_order_relaxed);
    if (oldDepth == depth) {
        DirTable &next = growTable(depth + 1);
        for (size_t i = 0; i < next.entries.size(); ++i) {
            next.entries[i].store(
                t->entries[i & (t->entries.size() - 1)].load(
                    std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        ++depth;
        t = &next;
    }
    const uint64_t step = 1ull << (oldDepth + 1);
    for (uint64_t i = sibling.prefix; i < t->entries.size();
         i += step) {
        t->entries[i].store(&sibling, std::memory_order_release);
    }
    table.store(t, std::memory_order_release);
    if (!mirrored) {
        ++splitCount;
        return;
    }

    apply_point.fire();
    persistBucket(sibling);
    persistBucket(bucket);
    // Both pages must be durable before the journal is retired —
    // otherwise a crash could lose one page with no journal left to
    // flag the tear.
    if (::fdatasync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
        davf_throw(ErrorKind::Io, "cannot fdatasync index '", filePath,
                   "': ", std::strerror(errno));
    }
    if (::unlink(journalPath.c_str()) != 0) {
        davf_warn("cannot retire split journal '", journalPath,
                  "': ", std::strerror(errno),
                  " (next open will rebuild)");
    }
    ++splitCount;
}

bool
HashIndex::remove(uint64_t hash, uint64_t offset)
{
    const std::lock_guard<std::mutex> lock(writerMutex);
    DirTable *t = table.load(std::memory_order_relaxed);
    if (t == nullptr)
        return false;
    Bucket &bucket = *t->entries[hash & (t->entries.size() - 1)].load(
        std::memory_order_relaxed);
    for (uint32_t i = 0; i < bucket.count; ++i) {
        if (bucket.slots[i].hash != hash
            || bucket.slots[i].offset != offset) {
            continue;
        }
        markDirty();
        const BucketSlot last = bucket.slots[bucket.count - 1];
        bucket.version.fetch_add(1, std::memory_order_acq_rel);
        relaxedStore(bucket.slots[i].hash, last.hash);
        relaxedStore(bucket.slots[i].offset, last.offset);
        relaxedStore(bucket.slots[i].size, last.size);
        relaxedStore(bucket.count, bucket.count - 1);
        bucket.version.fetch_add(1, std::memory_order_release);
        --liveKeys;
        persistBucket(bucket);
        return true;
    }
    return false;
}

void
HashIndex::persistBucket(const Bucket &bucket)
{
    static const crashpoint::CrashPoint write_point(
        "index.bucket_write");
    if (fd < 0)
        return; // Detached: memory only.
    write_point.fire();

    BucketImage image;
    image.prefix = bucket.prefix;
    image.localDepth = bucket.localDepth;
    image.count = bucket.count;
    std::memcpy(image.slots, bucket.slots, sizeof(image.slots));
    const std::string page = serializeBucketPage(image);
    if (!pwriteAll(fd, page,
                   (uint64_t(bucket.id) + 1) * kPageSize)) {
        davf_throw(ErrorKind::Io, "cannot write bucket page in '",
                   filePath, "': ", std::strerror(errno));
    }
}

void
HashIndex::persistHeader(bool clean, uint64_t dataCommitted)
{
    IndexHeader header;
    header.slotsPerBucket = kSlotsPerBucket;
    header.globalDepth = depth;
    header.bucketPages = buckets.size();
    header.keyCount = liveKeys;
    header.dataCommitted = dataCommitted;
    header.clean = clean;
    if (!pwriteAll(fd, serializeIndexHeader(header), 0)) {
        davf_throw(ErrorKind::Io, "cannot write index header in '",
                   filePath, "': ", std::strerror(errno));
    }
}

void
HashIndex::markDirty()
{
    if (dirtyOnDisk || fd < 0)
        return;
    // The dirty mark must be durable before any page mutation can be:
    // a clean header promises the pages cover dataCommitted.
    persistHeader(false, committedWatermark);
    if (::fdatasync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
        davf_throw(ErrorKind::Io, "cannot fdatasync index '", filePath,
                   "': ", std::strerror(errno));
    }
    dirtyOnDisk = true;
}

void
HashIndex::checkpoint(uint64_t dataCommitted)
{
    static const crashpoint::CrashPoint checkpoint_point(
        "index.checkpoint");

    const std::lock_guard<std::mutex> lock(writerMutex);
    davf_assert(fd >= 0, "checkpoint on a closed index");
    checkpoint_point.fire();
    // Pages first, then the clean header that vouches for them.
    if (::fdatasync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
        davf_throw(ErrorKind::Io, "cannot fdatasync index '", filePath,
                   "': ", std::strerror(errno));
    }
    persistHeader(true, dataCommitted);
    if (::fdatasync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
        davf_throw(ErrorKind::Io, "cannot fdatasync index '", filePath,
                   "': ", std::strerror(errno));
    }
    committedWatermark = dataCommitted;
    dirtyOnDisk = false;
}

uint32_t
HashIndex::globalDepth() const
{
    const std::lock_guard<std::mutex> lock(writerMutex);
    return depth;
}

uint64_t
HashIndex::bucketCount() const
{
    const std::lock_guard<std::mutex> lock(writerMutex);
    return buckets.size();
}

uint64_t
HashIndex::keyCount() const
{
    const std::lock_guard<std::mutex> lock(writerMutex);
    return liveKeys;
}

void
HashIndex::forEachSlot(
    const std::function<void(const BucketSlot &)> &fn) const
{
    const std::lock_guard<std::mutex> lock(writerMutex);
    for (const Bucket &bucket : buckets) {
        for (uint32_t i = 0; i < bucket.count; ++i)
            fn(bucket.slots[i]);
    }
}

} // namespace davf::store
