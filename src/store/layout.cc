#include "layout.hh"

#include <sstream>

namespace davf::store {

const char *const kDataFileName = "segments.davf";
const char *const kLockFileName = "index.lock";
const char *const kRetiredIndexFiles[2] = {"index.davf", "split.journal"};

namespace {

void
putU32(std::string &out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

uint32_t
getU32(std::string_view bytes, size_t at)
{
    uint32_t value = 0;
    for (int i = 3; i >= 0; --i)
        value = (value << 8) | static_cast<unsigned char>(bytes[at + i]);
    return value;
}

uint64_t
getU64(std::string_view bytes, size_t at)
{
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | static_cast<unsigned char>(bytes[at + i]);
    return value;
}


/**
 * Parse a "davf-store v<N>" header line; 0 if the line is not a
 * well-formed header (a version needs 1..9 digits, no sign, no junk).
 */
uint32_t
recordHeaderVersion(std::string_view line)
{
    constexpr std::string_view magic = "davf-store v";
    if (line.substr(0, magic.size()) != magic)
        return 0;
    const std::string_view digits = line.substr(magic.size());
    if (digits.empty() || digits.size() > 9)
        return 0;
    uint32_t version = 0;
    for (const char c : digits) {
        if (c < '0' || c > '9')
            return 0;
        version = version * 10 + static_cast<uint32_t>(c - '0');
    }
    return version;
}

} // namespace

std::string
serializeRecordText(const std::string &key, const std::string &payload,
                    uint32_t version)
{
    std::ostringstream os;
    os << "davf-store v" << version << "\nkey " << key << "\npayload "
       << payload << "\nsum " << fnv1a64Hex(key + '\n' + payload)
       << "\nend\n";
    return os.str();
}

bool
recordTextFutureVersion(std::string_view text)
{
    const size_t eol = text.find('\n');
    const std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    return recordHeaderVersion(line) > kRecordTextVersionMax;
}

Result<std::pair<std::string, std::string>>
parseRecordText(const std::string &text)
{
    using R = Result<std::pair<std::string, std::string>>;
    std::istringstream is(text);
    std::string line;

    if (!std::getline(is, line)) {
        return R::Err(ErrorKind::BadInput,
                      "store record: bad header: " + line.substr(0, 60));
    }
    const uint32_t version = recordHeaderVersion(line);
    if (version < kRecordTextVersion) {
        return R::Err(ErrorKind::BadInput,
                      "store record: bad header: " + line.substr(0, 60));
    }
    if (version > kRecordTextVersionMax) {
        return R::Err(ErrorKind::BadInput,
                      "store record: future version: "
                          + line.substr(0, 60));
    }
    if (!std::getline(is, line) || line.rfind("key ", 0) != 0
        || line.size() == 4) {
        return R::Err(ErrorKind::BadInput,
                      "store record: missing key record");
    }
    std::string key = line.substr(4);
    if (!std::getline(is, line) || line.rfind("payload ", 0) != 0
        || line.size() == 8) {
        return R::Err(ErrorKind::BadInput,
                      "store record: missing payload record");
    }
    std::string payload = line.substr(8);
    // The checksum catches in-place corruption (a flipped bit in the
    // key or payload) that would otherwise parse as a valid record.
    if (!std::getline(is, line) || (version < 3 && line.rfind("sum ", 0) != 0)) {
        return R::Err(ErrorKind::BadInput,
                      "store record: missing sum record");
    }
    // v3 forward compatibility: unknown extension lines between the
    // payload and the sum are skipped, not fatal — a future grammar
    // that adds fields degrades this binary to a recompute, never to a
    // quarantine.
    while (line.rfind("sum ", 0) != 0) {
        if (line == "end" || !std::getline(is, line)) {
            return R::Err(ErrorKind::BadInput,
                          "store record: missing sum record");
        }
    }
    if (line.substr(4) != fnv1a64Hex(key + '\n' + payload)) {
        return R::Err(ErrorKind::BadInput,
                      "store record: checksum mismatch (garbled)");
    }
    // The end sentinel proves the sum line was not truncated
    // mid-write; without it the record is torn and must be recomputed.
    if (!std::getline(is, line) || line != "end") {
        return R::Err(ErrorKind::BadInput,
                      "store record: missing end sentinel");
    }
    if (std::getline(is, line) && !line.empty()) {
        return R::Err(ErrorKind::BadInput,
                      "store record: trailing garbage");
    }
    return R::Ok({std::move(key), std::move(payload)});
}

bool
splitCanonicalRecord(std::string_view record, std::string_view &key,
                     std::string_view &payload)
{
    constexpr std::string_view headV2 = "davf-store v2\nkey ";
    constexpr std::string_view headV3 = "davf-store v3\nkey ";
    constexpr std::string_view payloadTag = "payload ";
    constexpr std::string_view sumTag = "sum ";
    constexpr std::string_view tail = "end\n";
    size_t at = 0;
    if (record.substr(0, headV2.size()) == headV2)
        at = headV2.size();
    else if (record.substr(0, headV3.size()) == headV3)
        at = headV3.size();
    else
        return false;
    const size_t keyEnd = record.find('\n', at);
    if (keyEnd == std::string_view::npos || keyEnd == at)
        return false;
    key = record.substr(at, keyEnd - at);
    at = keyEnd + 1;
    if (record.substr(at, payloadTag.size()) != payloadTag)
        return false;
    at += payloadTag.size();
    const size_t payloadEnd = record.find('\n', at);
    if (payloadEnd == std::string_view::npos || payloadEnd == at)
        return false;
    payload = record.substr(at, payloadEnd - at);
    at = payloadEnd + 1;
    if (record.substr(at, sumTag.size()) != sumTag)
        return false;
    at += sumTag.size();
    const size_t sumEnd = record.find('\n', at);
    if (sumEnd == std::string_view::npos)
        return false;
    const std::string_view sum = record.substr(at, sumEnd - at);
    if (record.substr(sumEnd + 1) != tail)
        return false;
    // Verify sum == fnv1a64Hex(key + '\n' + payload) without
    // materializing the concatenation or formatting hex (this runs on
    // the lookup hot path): chain the hash over the pieces and parse
    // the stored digits, rejecting anything the canonical emitter
    // would not produce (empty, over-long, uppercase, leading zeros).
    uint64_t expected = fnv1a64Extend(kFnv1a64Seed, key);
    expected = fnv1a64Extend(expected, std::string_view("\n", 1));
    expected = fnv1a64Extend(expected, payload);
    if (sum.empty() || sum.size() > 16
        || (sum.size() > 1 && sum[0] == '0')) {
        return false;
    }
    uint64_t stored = 0;
    for (const char c : sum) {
        uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<uint64_t>(c - 'a') + 10;
        else
            return false;
        stored = stored << 4 | digit;
    }
    return stored == expected;
}

std::string
legacyRecordFileName(const std::string &key)
{
    return "r-" + fnv1a64Hex(key) + ".rec";
}

bool
isLegacyRecordName(const std::string &name)
{
    return name.rfind("r-", 0) == 0 && name.size() > 6
        && name.compare(name.size() - 4, 4, ".rec") == 0;
}

std::string
serializeFrameHeader(const FrameHeader &header)
{
    std::string bytes;
    bytes.reserve(kFrameHeaderBytes);
    putU32(bytes, kFrameMagic);
    putU32(bytes, header.size);
    putU64(bytes, header.keyHash);
    putU64(bytes, header.bodySum);
    putU64(bytes, fnv1a64(bytes));
    return bytes;
}

Result<FrameHeader>
parseFrameHeader(std::string_view bytes)
{
    using R = Result<FrameHeader>;
    if (bytes.size() < kFrameHeaderBytes)
        return R::Err(ErrorKind::BadInput, "frame header: short read");
    if (getU32(bytes, 0) != kFrameMagic)
        return R::Err(ErrorKind::BadInput, "frame header: bad magic");
    if (getU64(bytes, 24) != fnv1a64(bytes.substr(0, 24))) {
        return R::Err(ErrorKind::BadInput,
                      "frame header: checksum mismatch");
    }
    FrameHeader header;
    header.size = getU32(bytes, 4);
    header.keyHash = getU64(bytes, 8);
    header.bodySum = getU64(bytes, 16);
    if (header.size == 0 || header.size > kMaxRecordBytes)
        return R::Err(ErrorKind::BadInput, "frame header: insane size");
    return R::Ok(std::move(header));
}

} // namespace davf::store
