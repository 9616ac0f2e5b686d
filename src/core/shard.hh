/**
 * @file
 * The unit of work shipped to a process-isolated campaign worker.
 *
 * A shard names one independently computable slice of a campaign cell:
 * either a single DelayAVF injection cycle (optionally restricted to a
 * sampled-wire index range — the supervisor's crash bisection probes
 * use this) or a whole sAVF evaluation. The spec carries the effective
 * engine sampling knobs verbatim, so a worker reproduces the
 * supervisor's configuration exactly instead of re-deriving it;
 * operational fields (threads, stop flag, paths) are deliberately not
 * part of a shard.
 *
 * Serialization is space-separated text tokens with doubles as C
 * hexfloats for bit-exactness. The outcome codec below writes a shard's
 * result in the same grammar: worker replies carry it, and a result
 * store record holds it under the shard's spec, so a stored or shipped
 * outcome aggregates bit-identically to a freshly computed one.
 */

#ifndef DAVF_CORE_SHARD_HH
#define DAVF_CORE_SHARD_HH

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "core/vulnerability.hh"
#include "util/error.hh"

namespace davf {

/** One unit of process-isolated campaign work (see file comment). */
struct ShardSpec
{
    enum class Kind : uint8_t {
        Cycle, ///< One DelayAVF injection cycle of one (structure, d).
        Savf,  ///< A whole particle-strike sAVF evaluation.
    };

    Kind kind = Kind::Cycle;
    std::string structure;

    /** @name Cycle shards only */
    /// @{
    double delayFraction = 0.0;
    uint64_t cycle = 0;

    /** Half-open sampled-wire index range; the default covers all. */
    size_t wireBegin = 0;
    size_t wireEnd = std::numeric_limits<size_t>::max();

    /** Sampled-wire indices to skip as quarantined (tallied, not run). */
    std::vector<size_t> quarantined;
    /// @}

    /** Engine sampling knobs (threads/stopFlag are not serialized). */
    SamplingConfig sampling;
};

/** One-line text form of @p spec. */
std::string serializeShardSpec(const ShardSpec &spec);

/** Parse a serializeShardSpec() line; malformed input is an Err. */
Result<ShardSpec> parseShardSpec(const std::string &text);

/** Canonical exact text form of a delay fraction (C hexfloat). */
std::string canonicalDelay(double delay);

/**
 * @name Outcome codec
 * A cycle outcome or an sAVF result as space-separated hexfloat-exact
 * tokens. A cycle outcome carries an optional trailing attribution
 * section (" attr ...", written only when attribution ran, so
 * attribution-off text is byte-identical to releases before it). The
 * parsers stop after their own fields and leave an unrecognized tail
 * to the caller (the worker reply's rusage suffix).
 */
/// @{
std::string serializeOutcomeFields(const InjectionCycleOutcome &outcome);
bool parseOutcomeFields(std::istream &is, InjectionCycleOutcome &outcome);
std::string serializeSavfFields(const SavfResult &result);
bool parseSavfFields(std::istream &is, SavfResult &result);
/// @}

} // namespace davf

#endif // DAVF_CORE_SHARD_HH
