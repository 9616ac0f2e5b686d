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

#include "obs/metrics.hh"
#include "util/atomic_file.hh"
#include "util/crashpoint.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace davf {

namespace {

constexpr double kQuitGraceMs = 2000.0;
constexpr double kKillGraceMs = 500.0;

/** Budget for a fresh worker's hello (covers its engine build). */
constexpr double kStartTimeoutMs = 120000.0;

/** Most injections quarantined per cell before giving up on it. */
constexpr size_t kMaxQuarantinePerCell = 4;

/**
 * Supervisor metric handles (docs/OBSERVABILITY.md). In `--isolate
 * process` mode the engine's own counters live in the worker processes;
 * these cover the parent's view of shard lifecycle, retries, and
 * recovery churn.
 */
struct SupervisorMetrics
{
    FleetMetrics fleet{"supervisor", "supervisor.retries"};
    obs::Counter workersSpawned{"supervisor.workers_spawned"};
    obs::Counter workersRetired{"supervisor.workers_retired"};
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

struct Supervisor::Worker : Slot
{
    std::unique_ptr<Subprocess> proc;
    bool ready = false; ///< The worker said hello and is idle.

    FrameLink *
    link() override
    {
        return proc && proc->running() ? proc.get() : nullptr;
    }

    void close() override { stop(kQuitGraceMs); }

    /** Kill a worker that failed or would not start. */
    void
    retire(double grace_ms)
    {
        if (proc)
            supervisorMetrics().workersRetired.add(1);
        stop(grace_ms);
    }

    void
    stop(double grace_ms)
    {
        if (proc && proc->running())
            proc->terminate(grace_ms);
        proc.reset();
        ready = false;
    }
};

Supervisor::Supervisor(const VulnerabilityEngine &the_engine,
                       const StructureRegistry &the_registry,
                       SupervisorOptions the_options)
    : ShardDispatcher(the_options, supervisorMetrics().fleet),
      engine(&the_engine), registry(&the_registry),
      options(std::move(static_cast<WorkerPoolOptions &>(the_options)))
{
    davf_assert(!options.workerArgv.empty(),
                "supervisor needs a worker command line");
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
    for (unsigned i = 0; i < std::max(options.workers, 1u); ++i) {
        auto worker = std::make_shared<Worker>();
        worker->name = "worker " + std::to_string(i);
        addSlot(std::move(worker));
    }
}

Supervisor::~Supervisor()
{
    try {
        shutdown();
    } catch (...) {
        // Destructors stay silent; Subprocess cleans up regardless.
    }
}

std::vector<WireId>
Supervisor::sampledWires(const std::string &structure,
                         const SamplingConfig &sampling)
{
    const Structure *resolved = registry->find(structure);
    davf_assert(resolved != nullptr, "supervisor: unknown structure '",
                structure, "'");
    return engine->sampledWires(*resolved, sampling);
}

void
Supervisor::ensureWorker(Worker &worker)
{
    if (worker.proc && worker.proc->running() && worker.ready)
        return;
    worker.retire(0.0);

    worker.proc = std::make_unique<Subprocess>();
    SpawnOptions spawn;
    spawn.memLimitMb = options.workerMemMb;
    worker.proc->spawn(options.workerArgv, spawn);
    supervisorMetrics().workersSpawned.add(1);

    // The hello covers the worker's whole engine build (golden run
    // included), so it gets its own generous budget.
    std::string frame;
    const Subprocess::ReadStatus st =
        worker.proc->read(frame, kStartTimeoutMs);
    if (st != Subprocess::ReadStatus::Frame || frame != "hello") {
        std::string detail;
        if (st == Subprocess::ReadStatus::Timeout) {
            detail = "no hello within " + std::to_string(kStartTimeoutMs)
                + " ms";
            worker.retire(kKillGraceMs);
        } else if (st == Subprocess::ReadStatus::Eof) {
            detail = worker.proc->wait().describe();
            worker.proc.reset();
        } else {
            detail = "unexpected first frame '" + frame + "'";
            worker.retire(kKillGraceMs);
        }
        davf_throw(ErrorKind::Io, "campaign worker failed to start (",
                   detail, "); command: ", options.workerArgv[0]);
    }
    worker.ready = true;
}

ShardAttempt
Supervisor::dispatch(Slot &slot, const ShardSpec &spec, double started_ms)
{
    Worker &worker = static_cast<Worker &>(slot);
    try {
        ensureWorker(worker);
    } catch (const DavfError &error) {
        ShardAttempt attempt;
        attempt.outcome = ShardOutcome::Crash;
        attempt.startFailed = true;
        attempt.detail = error.what();
        return attempt;
    }

    ShardAttempt attempt = exchange(*worker.proc, spec, started_ms);
    using Status = ShardReply::Status;
    if (attempt.status == Status::BadReply) {
        // Protocol corruption: retire the worker so the retry starts
        // from a clean process.
        worker.retire(kKillGraceMs);
    } else if (attempt.retryable()) {
        // The worker is gone, wedged, or out of frame sync: reap it
        // for its exit status and rusage.
        const ExitStatus exit = attempt.status == Status::Eof
            ? worker.proc->wait()
            : worker.proc->terminate(kKillGraceMs);
        worker.proc.reset();
        worker.ready = false;
        attempt.rssKb = exit.maxRssKb;
        attempt.userSec = exit.userSec;
        attempt.sysSec = exit.sysSec;
        if (attempt.status == Status::Eof
            || attempt.status == Status::SendFailed)
            attempt.detail = exit.describe();
        attempt.outcome = classifyShardReply(attempt.status, exit);
    }
    return attempt;
}

void
Supervisor::attempted(const ShardSpec &spec, unsigned attempt,
                      const ShardAttempt &result)
{
    outcomeCounter(shardOutcomeName(result.outcome)).add(1);
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
    std::snprintf(wall, sizeof wall, "%.3f", result.wallMs);
    std::snprintf(user, sizeof user, "%.3f", result.userSec);
    std::snprintf(sys, sizeof sys, "%.3f", result.sysSec);
    file << spec.structure << ','
         << (spec.kind == ShardSpec::Kind::Cycle ? "davf" : "savf")
         << ',' << spec.cycle << ',' << spec.wireBegin << ','
         << (spec.wireEnd == SIZE_MAX ? std::string("-")
                                      : std::to_string(spec.wireEnd))
         << ',' << attempt << ',' << shardOutcomeName(result.outcome)
         << ',' << wall << ',' << result.rssKb << ',' << user << ','
         << sys << '\n';
}

Settlement
Supervisor::orphaned(ShardJob &)
{
    // Process slots respawn their workers; only shutdown() ends them.
    return {Settlement::Kind::Fail, "supervisor shut down"};
}

Settlement
Supervisor::retriesExhausted(Slot &slot, ShardJob &job,
                             const ShardAttempt &last, size_t quarantined)
{
    // A worker that never started never ran the shard: there is no
    // culprit injection to bisect for.
    if (last.startFailed)
        return {Settlement::Kind::Fail, last.detail};
    if (job.spec.kind != ShardSpec::Kind::Cycle) {
        return {Settlement::Kind::Fail,
                std::string(shardOutcomeName(last.outcome)) + " ("
                    + last.detail + ")"};
    }

    // A cycle shard is bisected down to a single offending injection,
    // which is quarantined (up to the per-cell budget); the amended
    // job then reruns with the injection excluded.
    const Settlement stop{Settlement::Kind::Stop, {}};
    if (stopRequested())
        return stop;
    if (quarantined >= kMaxQuarantinePerCell) {
        return {Settlement::Kind::Fail,
                "crash (quarantine budget ("
                    + std::to_string(kMaxQuarantinePerCell)
                    + " per cell) exhausted)"};
    }

    // Bisection reports culprits by their place in the sampled-wire
    // order.
    ShardSpec &spec = job.spec;
    const std::vector<WireId> wires =
        sampledWires(spec.structure, spec.sampling);

    // Probe one wire-index sub-range with a single attempt; bisection
    // only needs a fails/passes signal, and probe outcomes are always
    // discarded (per-cycle memoization makes sub-range counters
    // non-additive).
    ShardAttempt probe_result;
    auto probe_fails = [&](size_t begin, size_t end) -> bool {
        ShardSpec probe = spec;
        probe.wireBegin = begin;
        probe.wireEnd = end;
        supervisorMetrics().bisectProbes.add(1);
        probe_result = dispatchTimed(slot, probe, 0);
        return probe_result.retryable();
    };

    // Binary descent: keep the failing half. The full range is known
    // to fail, so if the left half passes the culprit is on the right.
    size_t lo = 0;
    size_t hi = wires.size();
    while (hi - lo > 1) {
        const size_t mid = lo + (hi - lo) / 2;
        if (probe_fails(lo, mid))
            hi = mid;
        else
            lo = mid;
        if (probe_result.startFailed)
            return {Settlement::Kind::Fail, probe_result.detail};
        if (stopRequested())
            return stop;
    }

    if (hi - lo != 1 || !probe_fails(lo, hi)) {
        // The failure does not reproduce on any single injection —
        // flaky hardware, or a crash that needs cross-wire state.
        return {Settlement::Kind::Fail,
                "crash (crash did not bisect to a single injection)"};
    }
    if (probe_result.startFailed)
        return {Settlement::Kind::Fail, probe_result.detail};

    QuarantineRecord record;
    record.configHash = options.configHash;
    record.benchmark = options.benchmark;
    record.structure = spec.structure;
    record.delayFraction = spec.delayFraction;
    record.cycle = spec.cycle;
    record.wireIndex = lo;
    record.wire = lo < wires.size() ? wires[lo] : 0;
    record.seed = spec.sampling.seed;
    record.reason = probe_result.detail;
    if (!options.quarantineDir.empty()) {
        // A quarantine record is an optimization (it pre-excludes the
        // injection on the next run); failing to persist one — full
        // disk, armed crash point — must not kill the campaign that
        // just survived the crash it describes.
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
    davf_warn("quarantined injection: structure ", spec.structure,
              " cycle ", spec.cycle, " wire index ", lo, " (",
              probe_result.detail, ")");

    // Rerun the whole cycle with the exclusion; another culprit brings
    // it back here (budget permitting).
    spec.quarantined.push_back(lo);
    std::sort(spec.quarantined.begin(), spec.quarantined.end());
    return {Settlement::Kind::Rerun, {}, std::move(record)};
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
