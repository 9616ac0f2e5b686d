#include "shard.hh"

#include <sstream>

#include "util/parse.hh"

namespace davf {

std::string
serializeShardSpec(const ShardSpec &spec)
{
    std::ostringstream os;
    os << (spec.kind == ShardSpec::Kind::Cycle ? "cycle" : "savf") << ' '
       << spec.structure;
    if (spec.kind == ShardSpec::Kind::Cycle) {
        os << ' ' << hexDouble(spec.delayFraction) << ' ' << spec.cycle
           << ' ' << spec.wireBegin << ' ' << spec.wireEnd;
        os << ' ' << spec.quarantined.size();
        for (size_t index : spec.quarantined)
            os << ' ' << index;
    }
    const SamplingConfig &sampling = spec.sampling;
    os << ' ' << hexDouble(sampling.cycleFraction) << ' '
       << sampling.maxInjectionCycles << ' ' << sampling.maxWires << ' '
       << sampling.maxFlops << ' ' << sampling.seed << ' '
       << sampling.watchdogSlack << ' '
       << hexDouble(sampling.injectionTimeoutMs) << ' '
       << hexDouble(sampling.maxFailureRate);
    // Append-only extension, written only when set: attribution-off
    // specs — and thus store keys and worker frames — stay byte-equal
    // to releases that predate the flag.
    if (sampling.attribution)
        os << " attr";
    return os.str();
}

Result<ShardSpec>
parseShardSpec(const std::string &text)
{
    using R = Result<ShardSpec>;
    std::istringstream is(text);
    ShardSpec spec;

    std::string kind;
    if (!(is >> kind >> spec.structure))
        return R::Err(ErrorKind::BadInput,
                      "shard spec: missing kind/structure: " + text);
    if (kind == "cycle") {
        spec.kind = ShardSpec::Kind::Cycle;
        size_t quarantine_count = 0;
        if (!readDouble(is, spec.delayFraction)
            || !(is >> spec.cycle >> spec.wireBegin >> spec.wireEnd
                    >> quarantine_count)
            || quarantine_count > 1u << 20) {
            return R::Err(ErrorKind::BadInput,
                          "shard spec: bad cycle fields: " + text);
        }
        spec.quarantined.resize(quarantine_count);
        for (size_t &index : spec.quarantined) {
            if (!(is >> index))
                return R::Err(ErrorKind::BadInput,
                              "shard spec: bad quarantine list: " + text);
        }
    } else if (kind == "savf") {
        spec.kind = ShardSpec::Kind::Savf;
    } else {
        return R::Err(ErrorKind::BadInput,
                      "shard spec: unknown kind '" + kind + "'");
    }

    SamplingConfig &sampling = spec.sampling;
    if (!readDouble(is, sampling.cycleFraction)
        || !(is >> sampling.maxInjectionCycles >> sampling.maxWires
                >> sampling.maxFlops >> sampling.seed
                >> sampling.watchdogSlack)
        || !readDouble(is, sampling.injectionTimeoutMs)
        || !readDouble(is, sampling.maxFailureRate)) {
        return R::Err(ErrorKind::BadInput,
                      "shard spec: bad sampling fields: " + text);
    }
    std::string extension;
    if (is >> extension) {
        if (extension != "attr")
            return R::Err(ErrorKind::BadInput,
                          "shard spec: trailing tokens: " + text);
        sampling.attribution = true;
        if (is >> extension)
            return R::Err(ErrorKind::BadInput,
                          "shard spec: trailing tokens: " + text);
    }
    return R::Ok(std::move(spec));
}

} // namespace davf
