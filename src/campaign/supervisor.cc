#include "supervisor.hh"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/atomic_file.hh"
#include "util/clock.hh"
#include "util/crashpoint.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace davf {

namespace {

constexpr double kQuitGraceMs = 2000.0;
constexpr double kKillGraceMs = 500.0;

/**
 * Supervisor metric handles (docs/OBSERVABILITY.md). In `--isolate
 * process` mode the engine's own counters live in the worker processes;
 * these cover the parent's view of shard lifecycle, retries, and
 * recovery churn.
 */
struct SupervisorMetrics
{
    LinkMetrics link{"supervisor"};
    obs::Counter workersSpawned{"supervisor.workers_spawned"};
    obs::Counter workersRetired{"supervisor.workers_retired"};
    obs::Counter retries{"supervisor.retries"};
    obs::Counter bisectProbes{"supervisor.bisect_probes"};
    obs::Counter quarantines{"supervisor.quarantines"};
    obs::Counter quarantineWriteFailures{
        "supervisor.quarantine_write_failures"};
    obs::Counter quarantineSkippedRecords{
        "supervisor.quarantine_skipped_records"};
};

SupervisorMetrics &
supervisorMetrics()
{
    static SupervisorMetrics *const metrics = new SupervisorMetrics();
    return *metrics;
}

/** Per-outcome attempt tallies, registered once each. */
obs::Counter &
outcomeCounter(std::string_view name)
{
    static std::mutex mutex;
    static std::map<std::string, obs::Counter, std::less<>> counters;
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = counters.find(name);
    if (it == counters.end()) {
        it = counters
                 .emplace(std::string(name),
                          obs::Counter("supervisor.outcome."
                                       + std::string(name)))
                 .first;
    }
    return it->second;
}

} // namespace

const char *
workerOutcomeName(WorkerOutcome outcome)
{
    switch (outcome) {
    case WorkerOutcome::Ok: return "ok";
    case WorkerOutcome::Crash: return "crash";
    case WorkerOutcome::Timeout: return "timeout";
    case WorkerOutcome::Oom: return "oom";
    case WorkerOutcome::BadOutput: return "bad-output";
    case WorkerOutcome::Error: return "error";
    case WorkerOutcome::Stopped: return "stopped";
    }
    return "?";
}

WorkerOutcome
classifyWorkerReply(ShardReply::Status status, const ExitStatus &exit)
{
    using Status = ShardReply::Status;
    switch (status) {
    case Status::Ok: return WorkerOutcome::Ok;
    case Status::WorkerError: return WorkerOutcome::Error;
    case Status::Torn:
    case Status::BadReply: return WorkerOutcome::BadOutput;
    case Status::Silent:
    case Status::Deadline: return WorkerOutcome::Timeout;
    case Status::SendFailed:
    case Status::Eof: break;
    }
    return exit.exited && exit.code == 86 ? WorkerOutcome::Oom
                                          : WorkerOutcome::Crash;
}

std::string
serializeQuarantineRecord(const QuarantineRecord &record)
{
    std::ostringstream os;
    os << "davf-quarantine v1 " << record.configHash << ' '
       << record.benchmark << ' ' << record.structure << ' '
       << hexDouble(record.delayFraction) << ' ' << record.cycle << ' '
       << record.wireIndex << ' ' << record.wire << ' ' << record.seed
       << ' ' << record.reason;
    return os.str();
}

Result<QuarantineRecord>
parseQuarantineRecord(const std::string &text)
{
    using R = Result<QuarantineRecord>;
    std::istringstream is(text);
    std::string magic, version, delay;
    QuarantineRecord record;
    if (!(is >> magic >> version) || magic != "davf-quarantine"
        || version != "v1") {
        return R::Err(ErrorKind::BadInput,
                      "quarantine record: bad header: " + text);
    }
    if (!(is >> record.configHash >> record.benchmark >> record.structure
             >> delay >> record.cycle >> record.wireIndex >> record.wire
             >> record.seed)
        || !textToDouble(delay, record.delayFraction)) {
        return R::Err(ErrorKind::BadInput,
                      "quarantine record: bad fields: " + text);
    }
    std::getline(is, record.reason);
    if (!record.reason.empty() && record.reason.front() == ' ')
        record.reason.erase(0, 1);
    return R::Ok(std::move(record));
}

void
saveQuarantineRecord(const std::string &dir,
                     const QuarantineRecord &record)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot create quarantine dir '", dir,
                   "': ", ec.message());
    }
    // A deterministic name keeps reruns from piling up duplicates; the
    // delay lives in the hash so every (cell, injection) gets its own
    // file.
    std::ostringstream name;
    name << "q-" << record.structure << "-c" << record.cycle << "-w"
         << record.wireIndex << "-" << std::hex
         << fnv1a64(record.configHash + ':' + record.benchmark + ':'
                    + hexDouble(record.delayFraction))
         << ".qr";
    const std::filesystem::path path =
        std::filesystem::path(dir) / name.str();
    static const crashpoint::CrashPoint save_point("quarantine.save");
    save_point.fire();
    writeFileAtomic(path.string(),
                    serializeQuarantineRecord(record) + "\n");
}

std::vector<QuarantineRecord>
loadQuarantineRecords(const std::string &dir)
{
    std::vector<QuarantineRecord> records;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return records;
    for (const std::filesystem::directory_entry &entry : it) {
        if (!entry.is_regular_file(ec))
            continue;
        // Resume must never die on quarantine damage: an unreadable,
        // empty, torn, or garbled record is skipped with a warning and
        // a counter — the worst consequence is re-bisecting (and
        // re-quarantining) the injection it described.
        std::ifstream file(entry.path(), std::ios::binary);
        std::string line;
        if (!file || !std::getline(file, line)) {
            supervisorMetrics().quarantineSkippedRecords.add(1);
            davf_warn("skipping unreadable or empty quarantine record "
                      "'", entry.path().string(), "'");
            continue;
        }
        Result<QuarantineRecord> parsed = parseQuarantineRecord(line);
        if (!parsed) {
            supervisorMetrics().quarantineSkippedRecords.add(1);
            davf_warn("skipping torn or garbled quarantine record '",
                      entry.path().string(),
                      "': ", parsed.error().what());
            continue;
        }
        records.push_back(std::move(parsed.value()));
    }
    std::sort(records.begin(), records.end(),
              [](const QuarantineRecord &a, const QuarantineRecord &b) {
                  return std::tie(a.structure, a.delayFraction, a.cycle,
                                  a.wireIndex)
                      < std::tie(b.structure, b.delayFraction, b.cycle,
                                 b.wireIndex);
              });
    return records;
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

struct Supervisor::Slot
{
    std::unique_ptr<Subprocess> proc;
    bool ready = false; ///< The worker said hello and is idle.
};

/** One shard dispatch: the exchange, classified, plus its wall time.
 *  The rusage fields come from the reply or from the reaped worker. */
struct Supervisor::Attempt : ShardReply
{
    WorkerOutcome outcome = WorkerOutcome::Error;
    double wallMs = 0.0;

    bool retryable() const
    {
        return outcome == WorkerOutcome::Crash
            || outcome == WorkerOutcome::Timeout
            || outcome == WorkerOutcome::Oom
            || outcome == WorkerOutcome::BadOutput;
    }
};

struct Supervisor::CellState
{
    std::mutex mutex;
    size_t next = 0; ///< Next undispatched job index (under mutex).
    std::vector<QuarantineRecord> quarantined;
    bool failed = false;
    std::string failReason;
    bool stopped = false;
};

Supervisor::Supervisor(const VulnerabilityEngine &the_engine,
                       const StructureRegistry &the_registry,
                       SupervisorOptions the_options)
    : engine(&the_engine), registry(&the_registry),
      options(std::move(the_options))
{
    davf_assert(!options.workerArgv.empty(),
                "supervisor needs a worker command line");
    if (options.workers == 0)
        options.workers = 1;
    // Known-bad injections from earlier runs keep their exclusions, so
    // a resumed campaign converges instead of re-crashing on the same
    // cell. Records from other configurations are ignored (their
    // sampled-wire indices mean something else).
    if (!options.quarantineDir.empty()) {
        for (QuarantineRecord &record :
             loadQuarantineRecords(options.quarantineDir)) {
            if (record.configHash == options.configHash)
                known.push_back(std::move(record));
        }
    }
    // A dead worker surfaces as EPIPE on write, not a process-fatal
    // SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);
    for (unsigned i = 0; i < options.workers; ++i)
        slots.push_back(std::make_unique<Slot>());
}

Supervisor::~Supervisor()
{
    try {
        shutdown();
    } catch (...) {
        // Destructors stay silent; Subprocess cleans up regardless.
    }
}

bool
Supervisor::stopRequested() const
{
    return options.stopFlag
        && options.stopFlag->load(std::memory_order_relaxed);
}

void
Supervisor::retireWorker(Slot &slot, double grace_ms)
{
    if (!slot.proc)
        return;
    supervisorMetrics().workersRetired.add(1);
    if (slot.proc->running())
        slot.proc->terminate(grace_ms);
    slot.proc.reset();
    slot.ready = false;
}

void
Supervisor::ensureWorker(Slot &slot)
{
    if (slot.proc && slot.proc->running() && slot.ready)
        return;
    retireWorker(slot, 0.0);

    slot.proc = std::make_unique<Subprocess>();
    SpawnOptions spawn;
    spawn.memLimitMb = options.workerMemMb;
    slot.proc->spawn(options.workerArgv, spawn);
    supervisorMetrics().workersSpawned.add(1);

    // The hello covers the worker's whole engine build (golden run
    // included), so it gets its own generous budget.
    std::string frame;
    const Subprocess::ReadStatus st =
        slot.proc->read(frame, options.startTimeoutMs);
    if (st != Subprocess::ReadStatus::Frame || frame != "hello") {
        std::string detail;
        if (st == Subprocess::ReadStatus::Timeout) {
            detail = "no hello within "
                + std::to_string(options.startTimeoutMs) + " ms";
            retireWorker(slot, kKillGraceMs);
        } else if (st == Subprocess::ReadStatus::Eof) {
            detail = slot.proc->wait().describe();
            slot.proc.reset();
        } else {
            detail = "unexpected first frame '" + frame + "'";
            retireWorker(slot, kKillGraceMs);
        }
        davf_throw(ErrorKind::Io, "campaign worker failed to start (",
                   detail, "); command: ", options.workerArgv[0]);
    }
    slot.ready = true;
}

Supervisor::Attempt
Supervisor::dispatchOnce(Slot &slot, const ShardSpec &spec)
{
    const LinkMetrics &lm = supervisorMetrics().link;
    const obs::Span span(lm.dispatchSpan.c_str(), &lm.dispatchNs);
    lm.dispatches.add(1);

    Attempt attempt;
    const double started = nowMs();
    auto finish = [&](WorkerOutcome outcome) {
        attempt.outcome = outcome;
        attempt.wallMs = nowMs() - started;
        outcomeCounter(workerOutcomeName(outcome)).add(1);
        lm.shardWallUs.observe(
            static_cast<uint64_t>(attempt.wallMs * 1000.0));
        return attempt;
    };

    try {
        ensureWorker(slot);
    } catch (const DavfError &error) {
        // A worker that cannot even start is indistinguishable from a
        // startup crash; the retry path respawns it.
        attempt.detail = error.what();
        return finish(WorkerOutcome::Crash);
    }

    static_cast<ShardReply &>(attempt) =
        exchangeShard(*slot.proc, spec, options.heartbeatTimeoutMs,
                      options.shardTimeoutMs, started, lm);
    using Status = ShardReply::Status;
    ExitStatus exit;
    if (attempt.status == Status::BadReply) {
        // Protocol corruption: retire the worker so the retry starts
        // from a clean process.
        retireWorker(slot, kKillGraceMs);
    } else if (attempt.status != Status::Ok
               && attempt.status != Status::WorkerError) {
        // The worker is gone, wedged, or out of frame sync: reap it
        // for its exit status and rusage.
        exit = attempt.status == Status::Eof
            ? slot.proc->wait()
            : slot.proc->terminate(kKillGraceMs);
        slot.proc.reset();
        slot.ready = false;
        attempt.rssKb = exit.maxRssKb;
        attempt.userSec = exit.userSec;
        attempt.sysSec = exit.sysSec;
        if (attempt.status == Status::Eof
            || attempt.status == Status::SendFailed)
            attempt.detail = exit.describe();
    }
    return finish(classifyWorkerReply(attempt.status, exit));
}

void
Supervisor::recordMetrics(const ShardSpec &spec, unsigned attempt,
                          const Attempt &outcome)
{
    if (options.metricsCsvPath.empty())
        return;
    const std::lock_guard<std::mutex> lock(metricsMutex);
    const bool fresh = !std::filesystem::exists(options.metricsCsvPath);
    std::ofstream file(options.metricsCsvPath, std::ios::app);
    if (!file)
        return;
    if (fresh) {
        file << "structure,kind,cycle,wire_begin,wire_end,attempt,"
                "outcome,wall_ms,max_rss_kb,user_s,sys_s\n";
    }
    char wall[32], user[32], sys[32];
    std::snprintf(wall, sizeof wall, "%.3f", outcome.wallMs);
    std::snprintf(user, sizeof user, "%.3f", outcome.userSec);
    std::snprintf(sys, sizeof sys, "%.3f", outcome.sysSec);
    file << spec.structure << ','
         << (spec.kind == ShardSpec::Kind::Cycle ? "davf" : "savf")
         << ',' << spec.cycle << ',' << spec.wireBegin << ','
         << (spec.wireEnd == SIZE_MAX ? std::string("-")
                                      : std::to_string(spec.wireEnd))
         << ',' << attempt << ',' << workerOutcomeName(outcome.outcome)
         << ','
         << wall << ',' << outcome.rssKb << ',' << user << ',' << sys
         << '\n';
}

Supervisor::Attempt
Supervisor::dispatchWithRetries(Slot &slot, const ShardSpec &spec)
{
    Attempt attempt;
    for (unsigned n = 0;; ++n) {
        if (stopRequested()) {
            attempt.outcome = WorkerOutcome::Stopped;
            attempt.detail = "stop requested";
            return attempt;
        }
        attempt = dispatchOnce(slot, spec);
        recordMetrics(spec, n, attempt);
        if (!attempt.retryable() || n >= options.maxRetries)
            return attempt;
        supervisorMetrics().retries.add(1);
        davf_warn("shard ", spec.structure, " cycle ", spec.cycle,
                  " attempt ", n, " failed (", attempt.detail,
                  "); retrying");
        sleepRetryBackoff(options.backoffBaseMs, spec, n, options.seed,
                          supervisorMetrics().link);
    }
}

Supervisor::Attempt
Supervisor::bisectAndQuarantine(Slot &slot, ShardSpec spec,
                                const std::vector<WireId> &wires,
                                CellState &cell)
{
    // Probe one wire-index sub-range with a single attempt; bisection
    // only needs a fails/passes signal, and probe outcomes are always
    // discarded (per-cycle memoization makes sub-range counters
    // non-additive).
    auto probe_fails = [&](size_t begin, size_t end,
                           Attempt &last) -> bool {
        ShardSpec probe = spec;
        probe.wireBegin = begin;
        probe.wireEnd = end;
        supervisorMetrics().bisectProbes.add(1);
        last = dispatchOnce(slot, probe);
        recordMetrics(probe, 0, last);
        return last.retryable();
    };

    Attempt last;
    for (;;) {
        if (stopRequested()) {
            last.outcome = WorkerOutcome::Stopped;
            last.detail = "stop requested";
            return last;
        }
        {
            const std::lock_guard<std::mutex> lock(cell.mutex);
            if (cell.quarantined.size() >= options.maxQuarantinePerCell) {
                last.outcome = WorkerOutcome::Crash;
                last.detail = "quarantine budget ("
                    + std::to_string(options.maxQuarantinePerCell)
                    + " per cell) exhausted";
                return last;
            }
        }

        // Binary descent: keep the failing half. The full range is
        // known to fail, so if the left half passes the culprit is on
        // the right.
        size_t lo = 0;
        size_t hi = wires.size();
        while (hi - lo > 1) {
            const size_t mid = lo + (hi - lo) / 2;
            if (probe_fails(lo, mid, last))
                hi = mid;
            else
                lo = mid;
            if (stopRequested()) {
                last.outcome = WorkerOutcome::Stopped;
                last.detail = "stop requested";
                return last;
            }
        }

        if (hi - lo != 1 || !probe_fails(lo, hi, last)) {
            // The failure does not reproduce on any single injection —
            // flaky hardware, or a crash that needs cross-wire state.
            last.outcome = WorkerOutcome::Crash;
            last.detail = "crash did not bisect to a single injection";
            return last;
        }

        QuarantineRecord record;
        record.configHash = options.configHash;
        record.benchmark = options.benchmark;
        record.structure = spec.structure;
        record.delayFraction = spec.delayFraction;
        record.cycle = spec.cycle;
        record.wireIndex = lo;
        record.wire = lo < wires.size() ? wires[lo] : 0;
        record.seed = spec.sampling.seed;
        record.reason = last.detail;
        if (!options.quarantineDir.empty()) {
            // A quarantine record is an optimization (it pre-excludes
            // the injection on the next run); failing to persist one —
            // full disk, armed crash point — must not kill the
            // campaign that just survived the crash it describes.
            try {
                saveQuarantineRecord(options.quarantineDir, record);
            } catch (const DavfError &error) {
                supervisorMetrics().quarantineWriteFailures.add(1);
                davf_warn("cannot persist quarantine record (campaign "
                          "continues): ",
                          error.what());
            }
        }
        supervisorMetrics().quarantines.add(1);
        {
            const std::lock_guard<std::mutex> lock(cell.mutex);
            cell.quarantined.push_back(record);
        }
        davf_warn("quarantined injection: structure ", spec.structure,
                  " cycle ", spec.cycle, " wire index ", lo, " (",
                  last.detail, ")");

        spec.quarantined.push_back(lo);
        std::sort(spec.quarantined.begin(), spec.quarantined.end());

        // Re-run the whole cycle with the exclusion; more culprits send
        // us around the loop (budget permitting).
        last = dispatchWithRetries(slot, spec);
        if (!last.retryable())
            return last;
    }
}

Supervisor::CellResult
Supervisor::runDavfCell(
    const std::string &structure, double delay_fraction,
    const std::vector<uint64_t> &cycles, const SamplingConfig &sampling,
    const std::function<void(const InjectionCycleOutcome &)>
        &on_cycle_done)
{
    CellResult result;
    if (cycles.empty())
        return result;

    // Bisection reports culprits by their place in the sampled-wire
    // order.
    const Structure *resolved = registry->find(structure);
    davf_assert(resolved != nullptr, "supervisor: unknown structure '",
                structure, "'");
    const std::vector<WireId> wires =
        engine->sampledWires(*resolved, sampling);

    // Exclusions apply per cycle: a quarantined injection names one
    // (cycle, wire index) pair. A record read from disk applies only
    // while its index still names its wire in this cell's sampled
    // order; the config hash does not cover the netlist.
    std::vector<std::vector<size_t>> exclusions(cycles.size());
    for (const QuarantineRecord &record : known) {
        if (record.structure != structure
            || record.delayFraction != delay_fraction
            || record.seed != sampling.seed
            || record.wireIndex >= wires.size()
            || wires[record.wireIndex] != record.wire)
            continue;
        for (size_t i = 0; i < cycles.size(); ++i) {
            if (cycles[i] == record.cycle)
                exclusions[i].push_back(record.wireIndex);
        }
    }
    for (std::vector<size_t> &list : exclusions)
        std::sort(list.begin(), list.end());

    CellState cell;
    auto drain = [&](Slot &slot) {
        for (;;) {
            size_t job;
            {
                const std::lock_guard<std::mutex> lock(cell.mutex);
                if (cell.failed || cell.stopped
                    || cell.next >= cycles.size())
                    return;
                job = cell.next++;
            }
            if (stopRequested()) {
                const std::lock_guard<std::mutex> lock(cell.mutex);
                cell.stopped = true;
                return;
            }

            ShardSpec spec;
            spec.kind = ShardSpec::Kind::Cycle;
            spec.structure = structure;
            spec.delayFraction = delay_fraction;
            spec.cycle = cycles[job];
            spec.quarantined = exclusions[job];
            spec.sampling = sampling;

            Attempt attempt = dispatchWithRetries(slot, spec);
            if (attempt.retryable())
                attempt = bisectAndQuarantine(slot, spec, wires, cell);

            const std::lock_guard<std::mutex> lock(cell.mutex);
            if (attempt.outcome == WorkerOutcome::Ok) {
                if (on_cycle_done)
                    on_cycle_done(attempt.cycleOutcome);
            } else if (attempt.outcome == WorkerOutcome::Stopped) {
                cell.stopped = true;
            } else if (!cell.failed) {
                cell.failed = true;
                cell.failReason = "cycle "
                    + std::to_string(cycles[job]) + ": "
                    + workerOutcomeName(attempt.outcome) + " ("
                    + attempt.detail + ")";
            }
        }
    };

    const size_t pool =
        std::min<size_t>(options.workers, cycles.size());
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (size_t i = 1; i < pool; ++i)
        threads.emplace_back([&, i] { drain(*slots[i]); });
    drain(*slots[0]);
    for (std::thread &thread : threads)
        thread.join();

    result.quarantined = std::move(cell.quarantined);
    result.failed = cell.failed;
    result.failReason = std::move(cell.failReason);
    result.stopped = cell.stopped;
    return result;
}

Supervisor::CellResult
Supervisor::runSavfCell(const std::string &structure,
                        const SamplingConfig &sampling, SavfResult &out)
{
    CellResult result;
    ShardSpec spec;
    spec.kind = ShardSpec::Kind::Savf;
    spec.structure = structure;
    spec.sampling = sampling;

    const Attempt attempt = dispatchWithRetries(*slots[0], spec);
    if (attempt.outcome == WorkerOutcome::Ok) {
        out = attempt.savfOutcome;
    } else if (attempt.outcome == WorkerOutcome::Stopped) {
        result.stopped = true;
    } else {
        result.failed = true;
        result.failReason = std::string(workerOutcomeName(attempt.outcome))
            + " (" + attempt.detail + ")";
    }
    return result;
}

void
Supervisor::shutdown()
{
    std::vector<FrameLink *> links;
    for (const std::unique_ptr<Slot> &slot : slots) {
        if (slot->proc && slot->proc->running())
            links.push_back(slot->proc.get());
    }
    quitAndDrain(links, kQuitGraceMs);
    for (const std::unique_ptr<Slot> &slot : slots) {
        if (slot->proc && slot->proc->running())
            slot->proc->terminate(kQuitGraceMs);
        slot->proc.reset();
        slot->ready = false;
    }
}

int
runCampaignWorker(VulnerabilityEngine &engine,
                  const StructureRegistry &registry)
{
    ::signal(SIGPIPE, SIG_IGN);
    FdFrameLink link(STDIN_FILENO, STDOUT_FILENO);
    try {
        link.send("hello");
        serveShards(link, engine, registry);
    } catch (const DavfError &error) {
        std::fprintf(stderr, "campaign worker: fatal: %s\n",
                     error.what());
        return 1;
    }
    return 0;
}

} // namespace davf
