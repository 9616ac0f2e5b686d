/**
 * @file
 * The append-only segment data file backing the indexed result store
 * (`segments.davf`, see store/layout.hh for the frame grammar).
 *
 * This file is the single source of truth for a store: the key
 * directory that locates frames inside it is rebuilt from a sequential
 * scan at every open (store/index_store.hh). Appends are pwrite()s at a
 * tracked logical offset (re-appending over a failed partial write is
 * self-healing), optionally made durable with fdatasync; reads are
 * safe from any number of threads concurrently with one appender.
 *
 * Reads of frames that existed when the file was opened are served
 * from a read-only MAP_SHARED mapping — no syscalls on the lookup hot
 * path; frames appended since (beyond the mapped length) fall back to
 * positional pread()s. Superseded mappings are retired, not unmapped,
 * until close, so a lock-free reader can never touch unmapped memory.
 *
 * The `index.append` crash point (util/crashpoint.hh) guards every
 * append with the same payload-damage contract as atomic_file.write:
 * `torn` publishes a frame prefix and dies, `garble` publishes a
 * flipped byte and dies, `enospc` stops mid-write and throws like a
 * full disk.
 */

#ifndef DAVF_STORE_SEGMENT_FILE_HH
#define DAVF_STORE_SEGMENT_FILE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/layout.hh"
#include "util/error.hh"

namespace davf::store {

/** Append-only framed record file (see file comment). */
class SegmentFile
{
  public:
    SegmentFile() = default;
    ~SegmentFile();

    SegmentFile(const SegmentFile &) = delete;
    SegmentFile &operator=(const SegmentFile &) = delete;

    /**
     * Open (creating if absent) the segment file at @p path. The
     * logical append offset starts at the current file size; callers
     * that discover a torn tail via scan() trim it with truncateTo().
     * With @p writable off the file is opened read-only and never
     * created: only reads and scans are valid. Throws DavfError{Io} if
     * the file cannot be opened.
     */
    void open(const std::string &path, bool writable = true);

    bool isOpen() const { return fd >= 0; }

    /** Logical size: where the next frame will land. */
    uint64_t size() const { return appendOffset; }

    /**
     * Append one record (the v2 text form) framed and padded; returns
     * the frame's offset. Throws DavfError{Io} on a write failure (the
     * logical offset is not advanced, so the next append overwrites
     * the partial frame). Fires the `index.append` crash point.
     */
    uint64_t append(std::string_view record, uint64_t keyHash);

    /**
     * Read and fully verify the frame at @p offset: frame header
     * checks, body checksum, and (when nonzero) the expected record
     * size from the index slot. Err{BadInput} for any damage —
     * the caller treats it as a corrupt record, i.e. a miss.
     */
    Result<std::string> read(uint64_t offset, uint32_t expectSize) const;

    /**
     * Zero-copy variant of read(): the returned view points into the
     * mapping when the frame is covered by it (valid until the file is
     * closed), or into @p scratch after a pread fallback. Same
     * verification and errors as read().
     */
    Result<std::string_view> readView(uint64_t offset,
                                      uint32_t expectSize,
                                      std::string &scratch) const;

    /** What a sequential scan found. */
    struct ScanStats
    {
        uint64_t valid = 0;       ///< Frames with a valid body.
        uint64_t garbled = 0;     ///< Frames whose body checksum failed.
        uint64_t skippedBytes = 0; ///< Unframeable bytes resynced over.
        uint64_t tailOffset = 0;  ///< First byte not covered by a frame.
        bool tornTail = false;    ///< Unframeable bytes reach EOF.
    };

    /**
     * Scan frames from @p from (a frame boundary), calling
     * @p fn(offset, header, bodyValid) for each frame found. Damage in
     * the middle of the file is resynchronised over (frames are
     * 16-byte aligned and header-checksummed); damage that reaches EOF
     * is the torn tail, reported in the result. With @p verifyBodies
     * off, bodies are not read and every frame is reported valid
     * (frame headers and extents are still checked). Never throws on
     * damage.
     */
    ScanStats scan(uint64_t from,
                   const std::function<void(uint64_t offset,
                                            const FrameHeader &header,
                                            bool bodyValid)> &fn,
                   bool verifyBodies = true) const;

    /**
     * Raw bytes [offset, offset+size) with no framing interpretation
     * (tail quarantining). Err{Io} if unreadable.
     */
    Result<std::string> readRaw(uint64_t offset, uint64_t size) const;

    /**
     * Overwrite [offset, offset+size) with zeros (fsck neutralizing a
     * quarantined garbled frame: zeros are unframeable, so later scans
     * resync past the region instead of re-reporting it as damage).
     */
    void zeroRange(uint64_t offset, uint64_t size);

    /** fdatasync the file (compaction barrier). */
    void sync() const;

    /**
     * Trim the logical and physical size to @p offset (torn-tail
     * repair; the caller quarantines the bytes first).
     */
    void truncateTo(uint64_t offset);

    /**
     * Round the logical append offset up to the frame alignment (used
     * when a torn tail could not be quarantined: later frames must
     * stay on the grid a resyncing scan walks).
     */
    void alignAppend();

    /** Per-append fdatasync (on by default; compaction's rewrite
     * turns it off and syncs once at the end). */
    bool syncAppends = true;

    void close();

  private:
    void mapFile(uint64_t size);
    void retireMap();

    int fd = -1;
    /// Atomic: readers bound their reads by it while one appender
    /// advances it.
    std::atomic<uint64_t> appendOffset{0};
    std::string path;

    /// Read-only mapping of the first @ref mapLen bytes (see file
    /// comment); null when the file was empty at open or mmap failed.
    const char *mapBase = nullptr;
    uint64_t mapLen = 0;
    /// Superseded mappings, kept alive for concurrent readers until
    /// the object is destroyed.
    std::vector<std::pair<void *, size_t>> retiredMaps;
};

} // namespace davf::store

#endif // DAVF_STORE_SEGMENT_FILE_HH
