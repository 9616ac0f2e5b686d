/**
 * @file
 * On-disk layout of the result store (`src/store/`): byte-exact
 * encode/decode helpers for the segment data file, plus the
 * record-text grammar every record is written in.
 *
 * A store directory contains `segments.davf`, the append-only
 * **segment data file** and the store's only data file. Every record
 * is wrapped in a 32-byte binary frame (magic, record size, key hash,
 * body checksum, and a header checksum over the first 24 bytes) and
 * padded to a 16-byte boundary so a scan can resynchronise after
 * damage. The framed payload is the *unchanged* v2 record text
 * ("davf-store v2\nkey ...\npayload ...\nsum ...\nend\n"), so a record
 * read out of a segment is byte-identical to a cold recompute and to
 * the legacy per-file record (`r-*.rec`) it may have been migrated
 * from. Beside it sit `index.lock` (the owner's flock) and, after
 * damage was found, `quarantine/`.
 *
 * All integers are little-endian. All checksums are 64-bit FNV-1a,
 * the same function the record text's `sum` line uses.
 */

#ifndef DAVF_STORE_LAYOUT_HH
#define DAVF_STORE_LAYOUT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/error.hh"
#include "util/hash.hh"

namespace davf::store {

/// @name File names inside a store directory
/// @{
extern const char *const kDataFileName; ///< "segments.davf"
extern const char *const kLockFileName; ///< "index.lock"

/** A persistent hash index and its split journal ("index.davf",
 * "split.journal") that older releases kept beside the segment file;
 * the owner removes them at open (store/index_store.hh). */
extern const char *const kRetiredIndexFiles[2];
/// @}

/**
 * @name Record text grammar
 * The exact text form of one record. ResultStore::serializeRecord /
 * parseRecord delegate here, and migration reads legacy per-file
 * records with the same parser. parseRecordText rejects every damage class: bad magic,
 * unknown version, missing fields, checksum mismatch (garble), missing
 * end sentinel (torn), trailing garbage.
 *
 * Two grammar revisions coexist:
 *  - **v2** — the original strict four-field form; every record
 *    without attribution data is still emitted as byte-identical v2.
 *  - **v3** — the same key/payload/sum/end shape (payloads may carry
 *    an attribution section), plus forward compatibility: a v3 parser
 *    *skips* unknown extension lines between `payload` and `sum`
 *    instead of rejecting the record, so grammar growth degrades old
 *    binaries to a cache miss rather than a corrupt-record quarantine.
 * A record whose header names a version beyond kRecordTextVersionMax
 * is classified by recordTextFutureVersion(): the store treats it as a
 * miss and leaves the bytes in place for the newer binary that wrote
 * them.
 */
/// @{
constexpr uint32_t kRecordTextVersion = 2;    ///< Canonical plain form.
constexpr uint32_t kRecordTextVersionMax = 3; ///< Highest we parse.

std::string serializeRecordText(const std::string &key,
                                const std::string &payload,
                                uint32_t version = kRecordTextVersion);
Result<std::pair<std::string, std::string>>
parseRecordText(const std::string &text);

/** Does @p text carry a well-formed record header naming a version
 * newer than this binary understands? Such records are misses, never
 * damage: they must not be unlinked, quarantined, or index-dropped. */
bool recordTextFutureVersion(std::string_view text);

/**
 * Fast strict splitter for the *canonical* serialized form (the only
 * form ever appended to a segment): on success points @p key and
 * @p payload into @p record and returns true. Any deviation from the
 * exact serializeRecordText() shape — including a wrong sum — returns
 * false. The index hot path uses this instead of the line-lenient
 * parseRecordText().
 */
bool splitCanonicalRecord(std::string_view record,
                          std::string_view &key,
                          std::string_view &payload);

/** Canonical legacy file name ("r-<hash>.rec") a key's record lived
 * under in a per-file store directory (migration input only). */
std::string legacyRecordFileName(const std::string &key);

/** Is @p name shaped like a legacy per-file record ("r-*.rec")? */
bool isLegacyRecordName(const std::string &name);
/// @}

/// @name Segment frames
/// @{
constexpr uint32_t kFrameMagic = 0x43525644u; ///< "DVRC" little-endian.
constexpr uint32_t kFrameHeaderBytes = 32;
constexpr uint32_t kFrameAlign = 16;

/** Largest record a frame will admit (guards parsers fed garbage). */
constexpr uint32_t kMaxRecordBytes = 1u << 30;

/** The 32-byte header in front of every record in segments.davf. */
struct FrameHeader
{
    uint32_t size = 0;    ///< Record text bytes that follow.
    uint64_t keyHash = 0; ///< fnv1a64 of the record's key.
    uint64_t bodySum = 0; ///< fnv1a64 of the record text.

    bool operator==(const FrameHeader &) const = default;
};

/** Total frame bytes (header + record + zero pad to kFrameAlign). */
constexpr uint64_t
frameBytes(uint32_t recordSize)
{
    const uint64_t raw = kFrameHeaderBytes + uint64_t(recordSize);
    return (raw + kFrameAlign - 1) / kFrameAlign * kFrameAlign;
}

/** Serialize @p header (exactly kFrameHeaderBytes). */
std::string serializeFrameHeader(const FrameHeader &header);

/**
 * Parse a frame header; Err{BadInput} if the magic, header checksum,
 * or size bound is wrong. A valid result proves only the *header*: the
 * body must still be verified against bodySum.
 */
Result<FrameHeader> parseFrameHeader(std::string_view bytes);
/// @}

} // namespace davf::store

#endif // DAVF_STORE_LAYOUT_HH
