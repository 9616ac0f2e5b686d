/**
 * @file
 * Deterministic crash/fault injection at named persistence points.
 *
 * Every durable write path in this repo (util/atomic_file, result-store
 * record publishes and segment appends — which is where campaign
 * progress lives — supervisor quarantine records, and the davf_store
 * fsck/compact rewrites) passes through a named
 * **crash point**. With nothing armed, a crash point costs a single
 * relaxed atomic load — cheap enough to leave compiled into release
 * builds, which is the point: the recovery tests exercise the exact
 * binaries users run.
 *
 * Arming happens through the environment,
 *
 *   DAVF_TEST_CRASHPOINT=<name>[:<hit-count>]=<action>
 *
 * or programmatically via arm()/disarm() (in-process tests). The spec
 * names one registered point (see knownPoints()), an optional 1-based
 * hit count (the Nth time execution reaches the point; default 1), and
 * what happens when it fires:
 *
 *  - kill    raise(SIGKILL): the process dies instantly, no unwinding,
 *            no buffer flushes — the kill -9 / power-cut case;
 *  - throw   throw DavfError{Io} as if the syscall under the point had
 *            failed — the EIO case;
 *  - enospc  at a payload point: write only a deterministic prefix of
 *            the data, then fail with a "no space left on device"
 *            DavfError{Io} — the full-disk-mid-write case. At a
 *            non-payload point it degrades to `throw`;
 *  - torn    at a payload point: truncate the payload at a
 *            deterministic byte offset (tornOffset()), *publish the
 *            damaged bytes anyway*, then SIGKILL — simulating the
 *            rename-reordered-before-data power cut that produces a
 *            torn record even under the tmp+rename discipline. At a
 *            non-payload point it degrades to `kill`;
 *  - garble  like torn, but the payload is bit-flipped at the offset
 *            instead of truncated — the media-corruption case.
 *
 * A fired point never fires again in the same process (hit counting is
 * monotonic), so a recovery run with the same environment but a fresh
 * process re-arms deterministically at the same instant.
 *
 * Like DAVF_TEST_NETFAULT, parsing is test-only and lenient: a
 * malformed spec warns and arms nothing — the hook must never break a
 * real run.
 */

#ifndef DAVF_UTIL_CRASHPOINT_HH
#define DAVF_UTIL_CRASHPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace davf::crashpoint {

/** What an armed crash point does when execution reaches it. */
enum class Action : uint8_t {
    None,   ///< Nothing armed (or the spec names another point).
    Kill,   ///< SIGKILL at the point.
    Throw,  ///< DavfError{Io} at the point.
    Enospc, ///< Partial write + DavfError{Io} (ENOSPC text).
    Torn,   ///< Publish a truncated payload, then SIGKILL.
    Garble, ///< Publish a bit-flipped payload, then SIGKILL.
};

/** Stable lowercase name of @p action (spec grammar / logs). */
const char *actionName(Action action);

/** One parsed DAVF_TEST_CRASHPOINT spec. */
struct Spec
{
    std::string point;     ///< Registered point name; "" = nothing.
    uint64_t hitCount = 1; ///< Fires on the Nth hit (1-based).
    Action action = Action::None;
};

/**
 * Parse @p text (the env value). nullptr/empty yields an unarmed Spec;
 * malformed input warns and yields an unarmed Spec.
 */
Spec parseSpec(const char *text);

/**
 * Arm @p spec process-wide (replacing any armed spec and resetting the
 * hit counter). A spec whose action is None disarms. Not thread-safe
 * against concurrent fire(): arm from a quiesced test harness only.
 */
void arm(const Spec &spec);

/** Disarm; subsequent hits cost one relaxed load again. */
void disarm();

/**
 * Arm from the DAVF_TEST_CRASHPOINT environment variable if it is set.
 * Called lazily by the first fire(); idempotent.
 */
void armFromEnvironment();

/** Every crash-point name compiled into this binary, sorted. */
const std::vector<std::string> &knownPoints();

/**
 * The deterministic damage offset for a @p size byte payload: the
 * byte index where `torn` truncates and `garble` flips. Chosen so the
 * damage is mid-record (never offset 0 for a non-empty payload, never
 * the full size), making the damaged artifact distinguishable from
 * both a missing and a complete record.
 */
size_t damageOffset(size_t size);

/**
 * SIGKILL the process at @p point. Payload sites call this after
 * *publishing* the damage a Torn/Garble action asked for — the torn
 * record must land on disk before the process dies, or the crash
 * would be indistinguishable from a clean pre-write kill.
 */
[[noreturn]] void killProcess(const char *point);

/**
 * A named crash point. Construct once (function-local static) so
 * registration and the name lookup happen off the hot path; fire on
 * every pass through the guarded site.
 */
class CrashPoint
{
  public:
    /** @p name must appear in knownPoints() (asserted). */
    explicit CrashPoint(const char *name);

    /**
     * A **simple** (non-payload) site: nothing to write here, only a
     * place to die. Kill/Torn/Garble SIGKILL the process; Throw/Enospc
     * throw DavfError{Io}. Returns normally iff the point is not
     * armed, names another point, or the hit count has not been
     * reached.
     */
    void fire() const;

    /**
     * A **payload** site guarding a write of @p size bytes. Kill
     * SIGKILLs and Throw throws as with fire(); Enospc, Torn, and
     * Garble are returned for the caller to apply to the payload (see
     * the file comment for their contracts). Returns Action::None when
     * the point does not fire.
     */
    Action firePayload(size_t size) const;

  private:
    const char *name;
};

} // namespace davf::crashpoint

#endif // DAVF_UTIL_CRASHPOINT_HH
