#include "crashpoint.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <unistd.h>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace davf::crashpoint {

namespace {

/**
 * Every crash point compiled into this binary, sorted. The CrashPoint
 * constructor asserts membership, so this table cannot drift from the
 * call sites: adding a site without listing it here aborts the first
 * test that executes it, and the recovery matrix (tests/ci) iterates
 * this list to prove each point is actually reachable and survivable.
 */
const char *const kKnownPoints[] = {
    "atomic_file.post_rename",
    "atomic_file.pre_fsync",
    "atomic_file.pre_rename",
    "atomic_file.pre_tmp_write",
    "atomic_file.write",
    "compact.rewrite",
    "fsck.repair",
    "index.append",
    "index.migrate",
    "index.tail_repair",
    "quarantine.save",
    "store.publish",
};

/** One relaxed load: the entire cost of a crash point when unarmed. */
std::atomic<bool> g_armed{false};

std::mutex g_mutex;          ///< Guards g_spec/g_hits mutation.
Spec g_spec;                 ///< The armed spec (g_mutex).
std::atomic<uint64_t> g_hits{0}; ///< Hits on the armed point so far.
std::atomic<bool> g_envChecked{false};

obs::Counter &
firesCounter()
{
    static obs::Counter *const counter =
        new obs::Counter("crashpoint.fires");
    return *counter;
}

[[noreturn]] void
die(const char *name)
{
    // SIGKILL, exactly like an external kill -9: no unwinding, no
    // atexit, no stream flushes — stderr is unbuffered so the note
    // below still lands, which the soak scripts grep for.
    std::fprintf(stderr, "crashpoint: killing at '%s'\n", name);
    ::raise(SIGKILL);
    ::_exit(137); // Unreachable; placates [[noreturn]].
}

[[noreturn]] void
throwAt(const char *name, bool enospc)
{
    davf_throw(ErrorKind::Io, "crashpoint '", name, "' fired: ",
               enospc ? "no space left on device (injected)"
                      : "injected I/O failure");
}

/**
 * The armed action for this hit of @p name, or None. Counts the hit
 * and latches the fire so a point fires at most once per process.
 */
Action
decide(const char *name)
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (g_spec.action == Action::None || g_spec.point != name)
        return Action::None;
    const uint64_t hit =
        g_hits.fetch_add(1, std::memory_order_relaxed) + 1;
    if (hit != g_spec.hitCount)
        return Action::None;
    firesCounter().add(1);
    return g_spec.action;
}

/**
 * Arm from the environment during static initialization: the fast
 * path (`!g_armed` -> return) must stay a single relaxed load, so it
 * can never be the place that discovers DAVF_TEST_CRASHPOINT. The
 * env is fixed before main() anyway.
 */
const bool g_envInit = (armFromEnvironment(), true);

} // namespace

void
killProcess(const char *point)
{
    die(point);
}

const char *
actionName(Action action)
{
    switch (action) {
      case Action::None:
        return "none";
      case Action::Kill:
        return "kill";
      case Action::Throw:
        return "throw";
      case Action::Enospc:
        return "enospc";
      case Action::Torn:
        return "torn";
      case Action::Garble:
        return "garble";
    }
    return "none";
}

Spec
parseSpec(const char *text)
{
    Spec spec;
    if (text == nullptr || *text == '\0')
        return spec;
    const std::string raw = text;

    auto malformed = [&]() {
        davf_warn("ignoring malformed DAVF_TEST_CRASHPOINT '", raw,
                  "' (expected <name>[:<hit-count>]="
                  "<kill|throw|enospc|torn|garble>)");
        return Spec{};
    };

    const size_t eq = raw.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= raw.size())
        return malformed();
    std::string target = raw.substr(0, eq);
    const std::string action = raw.substr(eq + 1);

    if (action == "kill")
        spec.action = Action::Kill;
    else if (action == "throw")
        spec.action = Action::Throw;
    else if (action == "enospc")
        spec.action = Action::Enospc;
    else if (action == "torn")
        spec.action = Action::Torn;
    else if (action == "garble")
        spec.action = Action::Garble;
    else
        return malformed();

    const size_t colon = target.find(':');
    if (colon != std::string::npos) {
        const std::string count = target.substr(colon + 1);
        target.erase(colon);
        errno = 0;
        char *end = nullptr;
        const unsigned long long value =
            std::strtoull(count.c_str(), &end, 10);
        if (errno != 0 || end == count.c_str() || *end != '\0'
            || value == 0) {
            return malformed();
        }
        spec.hitCount = value;
    }

    const auto &known = knownPoints();
    if (!std::binary_search(known.begin(), known.end(), target)) {
        davf_warn("DAVF_TEST_CRASHPOINT names unknown point '", target,
                  "'; nothing armed");
        return Spec{};
    }
    spec.point = std::move(target);
    return spec;
}

void
arm(const Spec &spec)
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_spec = spec;
    g_hits.store(0, std::memory_order_relaxed);
    g_envChecked.store(true, std::memory_order_release);
    g_armed.store(spec.action != Action::None,
                  std::memory_order_release);
}

void
disarm()
{
    arm(Spec{});
}

void
armFromEnvironment()
{
    if (g_envChecked.exchange(true, std::memory_order_acq_rel))
        return;
    const char *env = std::getenv("DAVF_TEST_CRASHPOINT");
    if (env != nullptr && *env != '\0')
        arm(parseSpec(env));
}

const std::vector<std::string> &
knownPoints()
{
    static const std::vector<std::string> *const points = [] {
        auto *list = new std::vector<std::string>(
            std::begin(kKnownPoints), std::end(kKnownPoints));
        return list;
    }();
    return *points;
}

size_t
damageOffset(size_t size)
{
    if (size < 2)
        return 0;
    return size / 2;
}

CrashPoint::CrashPoint(const char *the_name) : name(the_name)
{
    const auto &known = knownPoints();
    davf_assert(std::binary_search(known.begin(), known.end(),
                                   std::string(name)),
                "crash point '", name, "' missing from kKnownPoints");
}

void
CrashPoint::fire() const
{
    if (!g_armed.load(std::memory_order_relaxed))
        return;
    switch (decide(name)) {
      case Action::None:
        return;
      case Action::Kill:
      case Action::Torn:
      case Action::Garble:
        // With no payload to damage, dying on the spot is the
        // strongest thing a torn/garble spec can mean here.
        die(name);
      case Action::Throw:
        throwAt(name, false);
      case Action::Enospc:
        throwAt(name, true);
    }
}

Action
CrashPoint::firePayload(size_t size) const
{
    if (!g_armed.load(std::memory_order_relaxed))
        return Action::None;
    const Action action = decide(name);
    switch (action) {
      case Action::None:
        return Action::None;
      case Action::Kill:
        die(name);
      case Action::Throw:
        throwAt(name, false);
      case Action::Enospc:
      case Action::Torn:
      case Action::Garble:
        if (size == 0) {
            // Nothing to damage: degrade to the action's terminal
            // behaviour so the spec still "happens".
            if (action == Action::Enospc)
                throwAt(name, true);
            die(name);
        }
        return action;
    }
    return Action::None;
}

} // namespace davf::crashpoint
