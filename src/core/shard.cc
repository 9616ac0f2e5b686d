#include "shard.hh"

#include <istream>
#include <sstream>

#include "util/parse.hh"

namespace davf {

namespace {

/**
 * Percent-encode arbitrary text (instruction mnemonics like
 * "lw x1, 8(x2)") into a single whitespace-free token. Plain
 * characters pass through; everything else becomes %XX. The empty
 * string encodes as a lone "%" (no plain character maps to it).
 */
std::string
encodeText(const std::string &text)
{
    static const char hex[] = "0123456789ABCDEF";
    if (text.empty())
        return "%";
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        const auto u = static_cast<unsigned char>(c);
        const bool plain = (u >= '0' && u <= '9')
            || (u >= 'A' && u <= 'Z') || (u >= 'a' && u <= 'z')
            || u == '_' || u == '.' || u == '(' || u == ')' || u == '+'
            || u == '-';
        if (plain) {
            out += c;
        } else {
            out += '%';
            out += hex[u >> 4];
            out += hex[u & 15];
        }
    }
    return out;
}

/** Inverse of encodeText(); false for malformed escapes. */
bool
decodeText(const std::string &token, std::string &out)
{
    out.clear();
    if (token == "%")
        return true;
    for (size_t i = 0; i < token.size(); ++i) {
        if (token[i] != '%') {
            out += token[i];
            continue;
        }
        if (i + 2 >= token.size())
            return false;
        auto nibble = [](char c) -> int {
            if (c >= '0' && c <= '9')
                return c - '0';
            if (c >= 'A' && c <= 'F')
                return c - 'A' + 10;
            return -1;
        };
        const int hi = nibble(token[i + 1]);
        const int lo = nibble(token[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        out += static_cast<char>((hi << 4) | lo);
        i += 2;
    }
    return true;
}

void
writeSkipReasons(std::ostream &os,
                 const std::map<std::string, uint64_t> &reasons)
{
    os << ' ' << reasons.size();
    for (const auto &[reason, count] : reasons)
        os << ' ' << reason << ' ' << count;
}

bool
readSkipReasons(std::istream &is,
                std::map<std::string, uint64_t> &reasons)
{
    size_t count = 0;
    if (!(is >> count) || count > 1024)
        return false;
    for (size_t i = 0; i < count; ++i) {
        std::string reason;
        uint64_t tally = 0;
        if (!(is >> reason >> tally))
            return false;
        reasons[reason] = tally;
    }
    return true;
}

void
writeBits(std::ostream &os, const std::vector<uint8_t> &bits)
{
    os << ' ';
    if (bits.empty()) {
        os << '-';
        return;
    }
    for (uint8_t bit : bits)
        os << (bit ? '1' : '0');
}

bool
readBits(std::istream &is, std::vector<uint8_t> &bits)
{
    std::string text;
    if (!(is >> text))
        return false;
    bits.clear();
    if (text == "-")
        return true;
    bits.reserve(text.size());
    for (char c : text) {
        if (c != '0' && c != '1')
            return false;
        bits.push_back(c == '1' ? 1 : 0);
    }
    return true;
}

/**
 * The optional per-outcome attribution section — written only when
 * attribution ran, so attribution-off text stays byte-identical to
 * earlier releases: " attr <pc> <mnem> <nEvents> {<pc> <mnem> <dest>
 * <count>}".
 */
void
writeAttr(std::ostream &os, const CycleAttribution &attr)
{
    os << " attr " << attr.pc << ' ' << encodeText(attr.mnemonic) << ' '
       << attr.events.size();
    for (const CycleAttribution::Event &event : attr.events) {
        os << ' ' << event.pc << ' ' << encodeText(event.mnemonic) << ' '
           << encodeText(event.dest) << ' ' << event.count;
    }
}

bool
readAttr(std::istream &is, CycleAttribution &attr)
{
    std::string mnemonic;
    size_t events = 0;
    if (!(is >> attr.pc >> mnemonic >> events) || events > 65536
        || !decodeText(mnemonic, attr.mnemonic)) {
        return false;
    }
    attr.events.resize(events);
    for (CycleAttribution::Event &event : attr.events) {
        std::string text, dest;
        if (!(is >> event.pc >> text >> dest >> event.count)
            || !decodeText(text, event.mnemonic)
            || !decodeText(dest, event.dest)) {
            return false;
        }
    }
    attr.valid = true;
    return true;
}

} // namespace

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

std::string
canonicalDelay(double delay)
{
    return hexDouble(delay);
}

std::string
serializeSavfFields(const SavfResult &result)
{
    std::ostringstream os;
    os << hexDouble(result.savf) << ' ' << result.injections << ' '
       << result.aceInjections << ' ' << result.sdc << ' ' << result.due
       << ' ' << result.skippedErrors;
    return os.str();
}

bool
parseSavfFields(std::istream &is, SavfResult &result)
{
    std::string savf;
    if (!(is >> savf >> result.injections >> result.aceInjections
             >> result.sdc >> result.due >> result.skippedErrors)) {
        return false;
    }
    return textToDouble(savf, result.savf);
}

std::string
serializeOutcomeFields(const InjectionCycleOutcome &outcome)
{
    std::ostringstream os;
    os << outcome.cycle << ' ' << outcome.injections << ' '
       << outcome.staticInjections << ' ' << outcome.errorInjections
       << ' ' << outcome.multiBit << ' ' << outcome.delayAce << ' '
       << outcome.orAce << ' ' << outcome.sdc << ' ' << outcome.due
       << ' ' << outcome.interference << ' ' << outcome.compounding
       << ' ' << outcome.skippedNoToggle << ' '
       << outcome.uniqueGroupSims << ' ' << outcome.skippedErrors;
    writeSkipReasons(os, outcome.skipReasons);
    writeBits(os, outcome.wireDyn);
    writeBits(os, outcome.wireAce);
    if (outcome.attr.valid)
        writeAttr(os, outcome.attr);
    return os.str();
}

bool
parseOutcomeFields(std::istream &is, InjectionCycleOutcome &outcome)
{
    if (!(is >> outcome.cycle >> outcome.injections
             >> outcome.staticInjections >> outcome.errorInjections
             >> outcome.multiBit >> outcome.delayAce >> outcome.orAce
             >> outcome.sdc >> outcome.due >> outcome.interference
             >> outcome.compounding >> outcome.skippedNoToggle
             >> outcome.uniqueGroupSims >> outcome.skippedErrors)) {
        return false;
    }
    if (!readSkipReasons(is, outcome.skipReasons)
        || !readBits(is, outcome.wireDyn)
        || !readBits(is, outcome.wireAce)) {
        return false;
    }
    const std::streampos mark = is.tellg();
    std::string tag;
    if (!(is >> tag))
        return true; // No attribution section (the common case).
    if (tag == "attr")
        return readAttr(is, outcome.attr);
    // An unrecognized tail belongs to the caller (the worker frame
    // appends a rusage suffix after the outcome fields); rewind so the
    // caller's own trailing-token handling sees it.
    is.clear();
    is.seekg(mark);
    return true;
}

} // namespace davf
