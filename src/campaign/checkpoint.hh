/**
 * @file
 * The campaign journal: a versioned, human-readable checkpoint of a
 * sweep's progress, written atomically (tmp + rename) after every
 * completed cell and every completed injection cycle.
 *
 * Contents (see docs/ROBUSTNESS.md for the line grammar):
 *  - a version stamp and the campaign's config hash (a resume against a
 *    different configuration is rejected);
 *  - the outcome of every completed injection cycle of every davf cell,
 *    in the shared outcome codec (serializeOutcomeFields()). Cycles are
 *    mutually independent in the engine, so adopting them on resume is
 *    exact, and every aggregate is derived from them, never stored;
 *  - a verdict per finished cell: ok (an sAVF cell carries its result,
 *    which is its one shard) or failed with its reason.
 */

#ifndef DAVF_CAMPAIGN_CHECKPOINT_HH
#define DAVF_CAMPAIGN_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/vulnerability.hh"
#include "util/error.hh"

namespace davf {

/** Identity of one campaign cell. @c delay is canonicalDelay() text. */
struct CheckpointKey
{
    std::string kind; ///< "davf" or "savf".
    std::string benchmark;
    std::string structure;
    std::string delay;

    bool operator==(const CheckpointKey &) const = default;
};

/** One cell's journaled state: its completed cycles and its verdict. */
struct CheckpointCell
{
    /** Open until the cell finishes; Ok and Failed are final. */
    enum class State : uint8_t { Open, Ok, Failed };

    CheckpointKey key;
    State state = State::Open;
    std::string failReason; ///< Only when Failed.
    SavfResult savf;        ///< An Ok sAVF cell's result.

    /** A davf cell's completed injection cycles, ascending by cycle
     *  (the engine's schedule order). A failed cell's are not written. */
    std::vector<InjectionCycleOutcome> cycles;

    /** Insert @p outcome in cycle order; false (and no change) when
     *  its cycle is already present. */
    bool addCycle(InjectionCycleOutcome outcome);
};

/** The whole journal. */
struct Checkpoint
{
    static constexpr uint32_t kVersion = 2;

    std::string configHash;

    /** Serialized in this order; parsing keeps first-appearance order. */
    std::vector<CheckpointCell> cells;

    CheckpointCell *find(const CheckpointKey &key);
};

/**
 * What lenient parsing repaired. The journal is written atomically, so
 * at most the final line can be torn (interrupted copy, crashed
 * filesystem); passing a stats object to parseCheckpoint() tolerates
 * exactly that — the damaged tail line is dropped with a note here
 * instead of failing the whole resume. Damage anywhere else is still an
 * error.
 */
struct CheckpointLoadStats
{
    bool truncatedTail = false; ///< A torn final line was dropped.
    bool missingEnd = false;    ///< The "end" sentinel never arrived.
    std::string droppedLine;    ///< The dropped text, for the warning.
};

/** Canonical exact text form of a delay fraction (C hexfloat). */
std::string canonicalDelay(double delay);

/**
 * Serialize to the journal text form: cells in vector order, each as
 * its cycle records in cycle order followed by its verdict, so equal
 * journals serialize to equal bytes whatever order their records were
 * produced or parsed in.
 */
std::string serializeCheckpoint(const Checkpoint &checkpoint);

/**
 * Parse journal text; corrupt or version-mismatched input is an Err.
 * Records may come in any order. With @p stats, a damaged *final* line
 * is skipped and reported there instead (see CheckpointLoadStats).
 */
Result<Checkpoint> parseCheckpoint(const std::string &text,
                                   CheckpointLoadStats *stats = nullptr);

/** Atomically write @p checkpoint to @p path (DavfError{Io} on failure). */
void saveCheckpoint(const std::string &path, const Checkpoint &checkpoint);

/** Load and parse @p path, lenient about a torn tail when @p stats. */
Result<Checkpoint> loadCheckpoint(const std::string &path,
                                  CheckpointLoadStats *stats = nullptr);

/**
 * @name Field-level forms shared with the process-isolation protocol
 * The same space-separated hexfloat-exact token grammar the journal
 * uses for cycle outcomes and sAVF results, without the record tag and
 * key, so worker replies aggregate and journal bit-identically.
 */
/// @{
std::string serializeOutcomeFields(const InjectionCycleOutcome &outcome);
bool parseOutcomeFields(std::istream &is, InjectionCycleOutcome &outcome);
std::string serializeSavfFields(const SavfResult &result);
bool parseSavfFields(std::istream &is, SavfResult &result);
/// @}

} // namespace davf

#endif // DAVF_CAMPAIGN_CHECKPOINT_HH
