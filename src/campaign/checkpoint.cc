#include "checkpoint.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/atomic_file.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace davf {

namespace {

/** Journal tokens are space-separated: reject names that would split. */
void
checkToken(const std::string &token, const char *what)
{
    if (token.empty()
        || token.find_first_of(" \t\n\r") != std::string::npos) {
        davf_throw(ErrorKind::BadArgument, "checkpoint ", what, " '",
                   token, "' is empty or contains whitespace");
    }
}

/**
 * Percent-encode arbitrary text (instruction mnemonics like
 * "lw x1, 8(x2)") into a single whitespace-free journal token. Plain
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
writeKey(std::ostream &os, const CheckpointKey &key)
{
    os << key.kind << ' ' << key.benchmark << ' ' << key.structure << ' '
       << key.delay;
}

bool
readKey(std::istream &is, CheckpointKey &key)
{
    return static_cast<bool>(is >> key.kind >> key.benchmark
                                >> key.structure >> key.delay);
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
 * attribution ran, so attribution-off journals stay byte-identical to
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

void
writeSavfFields(std::ostream &os, const SavfResult &result)
{
    os << hexDouble(result.savf) << ' ' << result.injections << ' '
       << result.aceInjections << ' ' << result.sdc << ' ' << result.due
       << ' ' << result.skippedErrors;
}

bool
readSavfResult(std::istream &is, SavfResult &result)
{
    std::string savf;
    if (!(is >> savf >> result.injections >> result.aceInjections
             >> result.sdc >> result.due >> result.skippedErrors)) {
        return false;
    }
    return textToDouble(savf, result.savf);
}

void
writeOutcomeFields(std::ostream &os, const InjectionCycleOutcome &outcome)
{
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
}

bool
readOutcome(std::istream &is, InjectionCycleOutcome &outcome)
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

} // namespace

bool
CheckpointCell::addCycle(InjectionCycleOutcome outcome)
{
    const auto at = std::lower_bound(
        cycles.begin(), cycles.end(), outcome.cycle,
        [](const InjectionCycleOutcome &have, uint64_t cycle) {
            return have.cycle < cycle;
        });
    if (at != cycles.end() && at->cycle == outcome.cycle)
        return false;
    cycles.insert(at, std::move(outcome));
    return true;
}

CheckpointCell *
Checkpoint::find(const CheckpointKey &key)
{
    for (CheckpointCell &cell : cells) {
        if (cell.key == key)
            return &cell;
    }
    return nullptr;
}

std::string
canonicalDelay(double delay)
{
    return hexDouble(delay);
}

std::string
serializeCheckpoint(const Checkpoint &checkpoint)
{
    std::ostringstream os;
    os << "davf-checkpoint v" << Checkpoint::kVersion << '\n';
    checkToken(checkpoint.configHash, "config hash");
    os << "config " << checkpoint.configHash << '\n';

    for (const CheckpointCell &cell : checkpoint.cells) {
        checkToken(cell.key.kind, "kind");
        checkToken(cell.key.benchmark, "benchmark");
        checkToken(cell.key.structure, "structure");
        checkToken(cell.key.delay, "delay");
        // A failed cell's verdict is all a resume needs of it.
        if (cell.state != CheckpointCell::State::Failed) {
            for (const InjectionCycleOutcome &outcome : cell.cycles) {
                os << "cycle ";
                writeKey(os, cell.key);
                os << ' ';
                writeOutcomeFields(os, outcome);
                os << '\n';
            }
        }
        if (cell.state == CheckpointCell::State::Open)
            continue;
        os << "cell ";
        writeKey(os, cell.key);
        if (cell.state == CheckpointCell::State::Failed) {
            os << " failed " << cell.failReason;
        } else {
            os << " ok";
            if (cell.key.kind == "savf") {
                os << ' ';
                writeSavfFields(os, cell.savf);
            }
        }
        os << '\n';
    }
    os << "end\n";
    return os.str();
}

Result<Checkpoint>
parseCheckpoint(const std::string &text, CheckpointLoadStats *stats)
{
    using R = Result<Checkpoint>;
    std::istringstream is(text);
    std::string line;

    if (!std::getline(is, line)
        || line != "davf-checkpoint v"
                + std::to_string(Checkpoint::kVersion)) {
        return R::Err(ErrorKind::BadInput,
                      "checkpoint header mismatch: expected "
                      "'davf-checkpoint v"
                          + std::to_string(Checkpoint::kVersion)
                          + "', got '" + line + "'");
    }

    Checkpoint checkpoint;
    bool sawEnd = false;

    // The journal is written atomically, so a damaged line can only be
    // the result of an interrupted copy or similar — and then only the
    // final line can be torn. Lenient mode (stats != nullptr) drops
    // exactly such a torn tail line; damage anywhere else stays fatal
    // because it means the file was corrupted, not truncated.
    auto tolerateTornTail = [&]() -> bool {
        const bool last_line = is.peek() == std::char_traits<char>::eof();
        if (stats == nullptr || !last_line)
            return false;
        stats->truncatedTail = true;
        stats->droppedLine = line;
        return true;
    };

    // The journaled cell @p key, created at its first record.
    auto cellFor = [&](const CheckpointKey &key) -> CheckpointCell & {
        if (CheckpointCell *cell = checkpoint.find(key))
            return *cell;
        checkpoint.cells.push_back({});
        checkpoint.cells.back().key = key;
        return checkpoint.cells.back();
    };
    auto atEnd = [](std::istream &ls) {
        std::string extra;
        return !(ls >> extra);
    };

    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        bool ok = true;
        if (tag == "config") {
            ok = static_cast<bool>(ls >> checkpoint.configHash)
                && atEnd(ls);
        } else if (tag == "cycle") {
            CheckpointKey key;
            InjectionCycleOutcome outcome;
            ok = readKey(ls, key) && key.kind == "davf"
                && readOutcome(ls, outcome) && atEnd(ls);
            if (ok) {
                CheckpointCell &cell = cellFor(key);
                ok = cell.state != CheckpointCell::State::Failed
                    && cell.addCycle(std::move(outcome));
            }
        } else if (tag == "cell") {
            CheckpointKey key;
            std::string status;
            SavfResult savf;
            std::string reason;
            ok = readKey(ls, key) && (ls >> status);
            if (ok && status == "failed") {
                std::getline(ls, reason);
                if (!reason.empty() && reason.front() == ' ')
                    reason.erase(0, 1);
            } else if (ok && status == "ok") {
                ok = (key.kind != "savf" || readSavfResult(ls, savf))
                    && atEnd(ls);
            } else {
                ok = false;
            }
            if (ok) {
                CheckpointCell &cell = cellFor(key);
                ok = cell.state == CheckpointCell::State::Open
                    && (status == "ok" || cell.cycles.empty());
                if (ok) {
                    cell.state = status == "ok"
                        ? CheckpointCell::State::Ok
                        : CheckpointCell::State::Failed;
                    cell.failReason = std::move(reason);
                    cell.savf = savf;
                }
            }
        } else if (tag == "end") {
            sawEnd = true;
            break;
        } else {
            if (tolerateTornTail())
                break;
            return R::Err(ErrorKind::BadInput,
                          "checkpoint: unknown record '" + tag + "'");
        }
        if (!ok) {
            if (tolerateTornTail())
                break;
            return R::Err(ErrorKind::BadInput,
                          "checkpoint: bad " + tag + " line: " + line);
        }
    }
    if (!sawEnd) {
        if (stats == nullptr) {
            return R::Err(ErrorKind::BadInput,
                          "checkpoint: truncated (no end record)");
        }
        stats->missingEnd = true;
    }
    if (checkpoint.configHash.empty())
        return R::Err(ErrorKind::BadInput,
                      "checkpoint: missing config record");
    return R::Ok(std::move(checkpoint));
}

void
saveCheckpoint(const std::string &path, const Checkpoint &checkpoint)
{
    // The whole-journal rewrite is the riskiest persistence moment a
    // campaign has (it happens after every cell and every injection
    // cycle); the crash point proves a kill mid-rewrite only ever
    // costs the in-flight save, never the previous journal.
    static const crashpoint::CrashPoint save_point("checkpoint.save");
    save_point.fire();
    writeFileAtomic(path, serializeCheckpoint(checkpoint));
}

Result<Checkpoint>
loadCheckpoint(const std::string &path, CheckpointLoadStats *stats)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        return Result<Checkpoint>::Err(
            ErrorKind::Io, "cannot open checkpoint '" + path + "'");
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    return parseCheckpoint(contents.str(), stats);
}

std::string
serializeOutcomeFields(const InjectionCycleOutcome &outcome)
{
    std::ostringstream os;
    writeOutcomeFields(os, outcome);
    return os.str();
}

bool
parseOutcomeFields(std::istream &is, InjectionCycleOutcome &outcome)
{
    return readOutcome(is, outcome);
}

std::string
serializeSavfFields(const SavfResult &result)
{
    std::ostringstream os;
    writeSavfFields(os, result);
    return os.str();
}

bool
parseSavfFields(std::istream &is, SavfResult &result)
{
    return readSavfResult(is, result);
}

} // namespace davf
