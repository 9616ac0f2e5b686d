#include "segment_file.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf::store {

namespace {

/** pwrite all of @p bytes at @p offset; false on any failure. */
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

/** pread exactly @p size bytes at @p offset; false on EOF/failure. */
bool
preadAll(int fd, char *out, size_t size, uint64_t offset)
{
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::pread(fd, out + done, size - done,
                                  static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        done += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

SegmentFile::~SegmentFile()
{
    close();
    for (const auto &[base, size] : retiredMaps)
        ::munmap(base, size);
    retiredMaps.clear();
}

void
SegmentFile::mapFile(uint64_t size)
{
    retireMap();
    if (size == 0)
        return;
    void *base = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                        MAP_SHARED, fd, 0);
    if (base == MAP_FAILED)
        return; // pread fallback covers everything.
    mapBase = static_cast<const char *>(base);
    mapLen = size;
}

void
SegmentFile::retireMap()
{
    // Never munmap while the object lives: a concurrent reader may be
    // mid-copy in the old mapping. The destructor frees the backlog.
    if (mapBase != nullptr) {
        retiredMaps.emplace_back(
            const_cast<char *>(mapBase), static_cast<size_t>(mapLen));
    }
    mapBase = nullptr;
    mapLen = 0;
}

void
SegmentFile::open(const std::string &the_path, bool writable)
{
    close();
    path = the_path;
    fd = ::open(path.c_str(),
                (writable ? O_RDWR | O_CREAT : O_RDONLY) | O_CLOEXEC,
                0644);
    if (fd < 0) {
        davf_throw(ErrorKind::Io, "cannot open segment file '", path,
                   "': ", std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int saved = errno;
        close();
        davf_throw(ErrorKind::Io, "cannot stat segment file '", path,
                   "': ", std::strerror(saved));
    }
    appendOffset = static_cast<uint64_t>(st.st_size);
    mapFile(appendOffset);
}

void
SegmentFile::close()
{
    retireMap();
    if (fd >= 0)
        ::close(fd);
    fd = -1;
    appendOffset = 0;
}

uint64_t
SegmentFile::append(std::string_view record, uint64_t keyHash)
{
    static const crashpoint::CrashPoint append_point("index.append");

    davf_assert(fd >= 0, "append on a closed segment file");
    FrameHeader header;
    header.size = static_cast<uint32_t>(record.size());
    header.keyHash = keyHash;
    header.bodySum = fnv1a64(record);

    std::string frame = serializeFrameHeader(header);
    frame.append(record);
    frame.resize(frameBytes(header.size), '\0');

    // Same payload-damage contract as atomic_file.write: `torn` and
    // `garble` publish damaged bytes and die (rename-less equivalent
    // of metadata surviving a power cut the data did not), `enospc`
    // stops mid-frame and fails like a full disk. The logical offset
    // only advances on success, so a survived failure is overwritten
    // by the next append.
    std::string_view payload = frame;
    bool fail_enospc = false;
    bool kill_after_publish = false;
    switch (append_point.firePayload(frame.size())) {
      case crashpoint::Action::Torn:
        payload = std::string_view(frame).substr(
            0, crashpoint::damageOffset(frame.size()));
        kill_after_publish = true;
        break;
      case crashpoint::Action::Garble:
        frame[crashpoint::damageOffset(frame.size())] ^= 0x40;
        kill_after_publish = true;
        break;
      case crashpoint::Action::Enospc:
        payload = std::string_view(frame).substr(
            0, crashpoint::damageOffset(frame.size()));
        fail_enospc = true;
        break;
      default:
        break;
    }

    if (!pwriteAll(fd, payload, appendOffset)) {
        davf_throw(ErrorKind::Io, "short write to '", path, "': ",
                   std::strerror(errno));
    }
    if (fail_enospc) {
        davf_throw(ErrorKind::Io, "short write to '", path,
                   "': no space left on device (injected)");
    }
    if (syncAppends || kill_after_publish)
        sync();
    if (kill_after_publish)
        crashpoint::killProcess("index.append");

    const uint64_t offset = appendOffset;
    appendOffset += frame.size();
    return offset;
}

Result<std::string_view>
SegmentFile::readView(uint64_t offset, uint32_t expectSize,
                      std::string &scratch) const
{
    using R = Result<std::string_view>;
    if (fd < 0)
        return R::Err(ErrorKind::Io, "segment file not open");
    if (offset + kFrameHeaderBytes > appendOffset)
        return R::Err(ErrorKind::BadInput, "frame offset out of range");

    // Hot path: the whole frame sits inside the mapping made at open.
    // Frames appended since then fall through to the pread path.
    if (mapBase != nullptr && offset + kFrameHeaderBytes <= mapLen) {
        auto header = parseFrameHeader(
            std::string_view(mapBase + offset, kFrameHeaderBytes));
        if (!header)
            return R::Err(header.error());
        if (expectSize != 0 && header.value().size != expectSize) {
            return R::Err(ErrorKind::BadInput,
                          "frame size disagrees with index slot");
        }
        const uint64_t end = offset + frameBytes(header.value().size);
        if (end > appendOffset)
            return R::Err(ErrorKind::BadInput,
                          "frame extends past tail");
        if (end <= mapLen) {
            const std::string_view record(
                mapBase + offset + kFrameHeaderBytes,
                header.value().size);
            if (fnv1a64(record) != header.value().bodySum) {
                return R::Err(ErrorKind::BadInput,
                              "frame body checksum mismatch (garbled)");
            }
            return R::Ok(record);
        }
    }

    char head[kFrameHeaderBytes];
    if (!preadAll(fd, head, sizeof(head), offset))
        return R::Err(ErrorKind::BadInput, "frame header unreadable");
    auto header =
        parseFrameHeader(std::string_view(head, sizeof(head)));
    if (!header)
        return R::Err(header.error());
    if (expectSize != 0 && header.value().size != expectSize) {
        return R::Err(ErrorKind::BadInput,
                      "frame size disagrees with index slot");
    }
    if (offset + frameBytes(header.value().size) > appendOffset)
        return R::Err(ErrorKind::BadInput, "frame extends past tail");
    scratch.resize(header.value().size);
    if (!preadAll(fd, scratch.data(), scratch.size(),
                  offset + kFrameHeaderBytes)) {
        return R::Err(ErrorKind::BadInput, "frame body unreadable");
    }
    if (fnv1a64(scratch) != header.value().bodySum) {
        return R::Err(ErrorKind::BadInput,
                      "frame body checksum mismatch (garbled)");
    }
    return R::Ok(std::string_view(scratch));
}

Result<std::string>
SegmentFile::read(uint64_t offset, uint32_t expectSize) const
{
    using R = Result<std::string>;
    std::string scratch;
    auto view = readView(offset, expectSize, scratch);
    if (!view)
        return R::Err(view.error());
    if (!scratch.empty())
        return R::Ok(std::move(scratch));
    return R::Ok(std::string(view.value()));
}

SegmentFile::ScanStats
SegmentFile::scan(uint64_t from,
                  const std::function<void(uint64_t, const FrameHeader &,
                                           bool)> &fn,
                  bool verifyBodies) const
{
    ScanStats stats;
    davf_assert(fd >= 0, "scan on a closed segment file");
    uint64_t at = from;
    uint64_t skipStart = 0;
    bool skipping = false;
    while (at + kFrameHeaderBytes <= appendOffset) {
        char head[kFrameHeaderBytes];
        bool frameOk = preadAll(fd, head, sizeof(head), at);
        FrameHeader header;
        if (frameOk) {
            auto parsed =
                parseFrameHeader(std::string_view(head, sizeof(head)));
            if (parsed
                && at + frameBytes(parsed.value().size) <= appendOffset) {
                header = parsed.value();
            } else {
                frameOk = false;
            }
        }
        if (!frameOk) {
            // Not a frame boundary: resynchronise forward. Frames are
            // 16-byte aligned, so damage is skipped in aligned steps
            // and any later intact frame is still found.
            if (!skipping) {
                skipping = true;
                skipStart = at;
            }
            at += kFrameAlign;
            continue;
        }
        if (skipping) {
            stats.skippedBytes += at - skipStart;
            skipping = false;
        }
        bool bodyValid = true;
        if (verifyBodies) {
            std::string record(header.size, '\0');
            bodyValid = preadAll(fd, record.data(), record.size(),
                                 at + kFrameHeaderBytes)
                && fnv1a64(record) == header.bodySum;
        }
        if (bodyValid)
            ++stats.valid;
        else
            ++stats.garbled;
        if (fn)
            fn(at, header, bodyValid);
        at += frameBytes(header.size);
    }
    if (skipping) {
        // Unframeable bytes reach EOF: the torn tail.
        stats.tailOffset = skipStart;
        stats.tornTail = true;
    } else if (at < appendOffset) {
        // A partial frame header at EOF is also a torn tail.
        stats.tailOffset = at;
        stats.tornTail = true;
    } else {
        stats.tailOffset = appendOffset;
    }
    return stats;
}

Result<std::string>
SegmentFile::readRaw(uint64_t offset, uint64_t size) const
{
    using R = Result<std::string>;
    std::string bytes(size, '\0');
    if (fd < 0 || !preadAll(fd, bytes.data(), bytes.size(), offset))
        return R::Err(ErrorKind::Io, "cannot read raw segment bytes");
    return R::Ok(std::move(bytes));
}

void
SegmentFile::zeroRange(uint64_t offset, uint64_t size)
{
    davf_assert(fd >= 0, "zeroRange on a closed segment file");
    const std::string zeros(size, '\0');
    if (!pwriteAll(fd, zeros, offset)) {
        davf_throw(ErrorKind::Io, "cannot zero range in '", path,
                   "': ", std::strerror(errno));
    }
    sync();
}

void
SegmentFile::sync() const
{
    if (fd >= 0 && ::fdatasync(fd) != 0 && errno != EINVAL
        && errno != ENOTSUP) {
        davf_throw(ErrorKind::Io, "cannot fdatasync '", path, "': ",
                   std::strerror(errno));
    }
}

void
SegmentFile::alignAppend()
{
    appendOffset =
        (appendOffset + kFrameAlign - 1) / kFrameAlign * kFrameAlign;
}

void
SegmentFile::truncateTo(uint64_t offset)
{
    davf_assert(fd >= 0, "truncate on a closed segment file");
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
        davf_throw(ErrorKind::Io, "cannot truncate '", path, "': ",
                   std::strerror(errno));
    }
    appendOffset = offset;
    // Pages past EOF would SIGBUS if touched; shrink the window (the
    // appendOffset bound already keeps readers below it).
    if (mapLen > offset)
        mapLen = offset;
}

} // namespace davf::store
