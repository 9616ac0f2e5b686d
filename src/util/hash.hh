/**
 * @file
 * 64-bit FNV-1a, the one hash behind every name the repository writes
 * to disk or the wire: store keys and record sums, workspace
 * fingerprints, campaign config hashes, quarantine file names, and the
 * retry backoff's deterministic jitter. Changing it orphans every
 * existing store record, journal, and quarantine directory.
 */

#ifndef DAVF_UTIL_HASH_HH
#define DAVF_UTIL_HASH_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace davf {

/// FNV-1a offset basis: the running-hash seed for fnv1a64Extend.
constexpr uint64_t kFnv1a64Seed = 0xcbf29ce484222325ull;

/**
 * Fold @p bytes into a running FNV-1a @p hash (seeded with
 * kFnv1a64Seed), so a hash over a concatenation can be computed
 * without materializing it: fnv1a64(a+b) ==
 * fnv1a64Extend(fnv1a64Extend(kFnv1a64Seed, a), b).
 */
constexpr uint64_t
fnv1a64Extend(uint64_t hash, std::string_view bytes)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** 64-bit FNV-1a over @p bytes. */
constexpr uint64_t
fnv1a64(std::string_view bytes)
{
    return fnv1a64Extend(kFnv1a64Seed, bytes);
}

/** Lowercase hex of fnv1a64, without leading zeros. */
std::string fnv1a64Hex(std::string_view bytes);

} // namespace davf

#endif // DAVF_UTIL_HASH_HH
