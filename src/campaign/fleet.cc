#include "fleet.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <thread>

#include "obs/trace.hh"
#include "util/clock.hh"
#include "util/logging.hh"

namespace davf {

namespace {

/** Grace window for draining the workers' streams at shutdown. */
constexpr double kQuitGraceMs = 2000.0;

/** A running cell polls the stop flag this often: a signal handler
 *  raises it without notifying anyone. */
constexpr auto kStopPollInterval = std::chrono::milliseconds(200);

/** "crash (detail)": an attempt as a failure reason. */
std::string
describe(const ShardAttempt &attempt)
{
    return std::string(shardOutcomeName(attempt.outcome)) + " ("
        + attempt.detail + ")";
}

} // namespace

const char *
shardOutcomeName(ShardOutcome outcome)
{
    switch (outcome) {
    case ShardOutcome::Ok: return "ok";
    case ShardOutcome::Crash: return "crash";
    case ShardOutcome::Timeout: return "timeout";
    case ShardOutcome::Oom: return "oom";
    case ShardOutcome::BadOutput: return "bad-output";
    case ShardOutcome::Error: return "error";
    }
    return "?";
}

ShardOutcome
classifyShardReply(ShardReply::Status status, const ExitStatus &exit)
{
    using Status = ShardReply::Status;
    switch (status) {
    case Status::Ok: return ShardOutcome::Ok;
    case Status::WorkerError: return ShardOutcome::Error;
    case Status::Torn:
    case Status::BadReply: return ShardOutcome::BadOutput;
    case Status::Silent:
    case Status::Deadline: return ShardOutcome::Timeout;
    case Status::SendFailed:
    case Status::Eof: break;
    }
    return exit.exited && exit.code == 86 ? ShardOutcome::Oom
                                          : ShardOutcome::Crash;
}

FleetMetrics::FleetMetrics(const std::string &the_prefix,
                           const std::string &retries_name)
    : prefix(the_prefix), link(the_prefix), retries(retries_name)
{}

/** The running cell's queue and outcome, under the fleet lock. */
struct ShardDispatcher::Cell
{
    std::vector<ShardJob> jobs;
    std::deque<size_t> queue; ///< Dispatchable job indices.
    size_t outstanding = 0;   ///< Jobs not yet delivered.
    size_t dispatchers = 0;   ///< Live dispatch threads.
    bool failed = false;
    std::string failReason;
    bool stopped = false;
    std::vector<QuarantineRecord> quarantined;

    /** Serializes delivery (on_cycle_done stores). */
    std::mutex deliverMutex;
    std::function<void(ShardJob &)> deliver;

    bool
    finished() const
    {
        return outstanding == 0 || failed || stopped;
    }
};

ShardDispatcher::ShardDispatcher(const DispatchOptions &the_policy,
                                 const FleetMetrics &the_metrics)
    : policy(the_policy), metrics(the_metrics)
{}

ShardDispatcher::~ShardDispatcher() = default;

bool
ShardDispatcher::stopRequested() const
{
    return policy.stopFlag
        && policy.stopFlag->load(std::memory_order_relaxed);
}

void
ShardDispatcher::addSlot(std::shared_ptr<Slot> slot)
{
    {
        const std::lock_guard<std::mutex> lock(mutex);
        slot->id = nextSlotId++;
        slots.push_back(std::move(slot));
    }
    cv.notify_all();
}

void
ShardDispatcher::endSlot(Slot &slot)
{
    {
        const std::lock_guard<std::mutex> lock(mutex);
        slot.ended = true;
        std::erase_if(slots, [&](const std::shared_ptr<Slot> &live) {
            return live.get() == &slot;
        });
    }
    cv.notify_all();
}

size_t
ShardDispatcher::slotCount() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    return slots.size();
}

size_t
ShardDispatcher::waitForSlots(size_t count, double timeout_ms)
{
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock,
                std::chrono::duration<double, std::milli>(timeout_ms),
                [&] { return slots.size() >= count || stopRequested(); });
    return slots.size();
}

ShardAttempt
ShardDispatcher::exchange(FrameLink &link, const ShardSpec &spec,
                          double started_ms) const
{
    ShardAttempt attempt;
    static_cast<ShardReply &>(attempt) =
        exchangeShard(link, spec, policy.heartbeatTimeoutMs,
                      policy.shardTimeoutMs, started_ms, metrics.link);
    attempt.outcome = classifyShardReply(attempt.status);
    return attempt;
}

ShardAttempt
ShardDispatcher::dispatchTimed(Slot &slot, const ShardSpec &spec,
                               unsigned attempt)
{
    const LinkMetrics &lm = metrics.link;
    ShardAttempt result;
    {
        const obs::Span span(lm.dispatchSpan.c_str(), &lm.dispatchNs);
        lm.dispatches.add(1);
        const double started = nowMs();
        result = dispatch(slot, spec, started);
        result.wallMs = nowMs() - started;
        lm.shardWallUs.observe(
            static_cast<uint64_t>(result.wallMs * 1000.0));
    }
    attempted(spec, attempt, result);
    return result;
}

void
ShardDispatcher::finishJob(Cell &cell, ShardJob &job)
{
    {
        const std::lock_guard<std::mutex> lock(cell.deliverMutex);
        cell.deliver(job);
    }
    const std::lock_guard<std::mutex> lock(mutex);
    --cell.outstanding;
    cv.notify_all();
}

void
ShardDispatcher::requeue(Cell &cell, size_t index, bool fresh)
{
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (cell.finished())
            return;
        // A retried shard goes next, to whichever slot is free.
        if (fresh)
            cell.jobs[index].attempts = 0;
        cell.queue.push_front(index);
    }
    cv.notify_all();
}

void
ShardDispatcher::settle(Cell &cell, size_t index, Settlement settled)
{
    ShardJob &job = cell.jobs[index];
    if (settled.quarantined) {
        const std::lock_guard<std::mutex> lock(mutex);
        cell.quarantined.push_back(std::move(*settled.quarantined));
    }
    if (settled.kind == Settlement::Kind::Done) {
        finishJob(cell, job);
        return;
    }
    if (settled.kind == Settlement::Kind::Rerun) {
        requeue(cell, index, true);
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (settled.kind == Settlement::Kind::Stop) {
            cell.stopped = true;
        } else if (!cell.failed) {
            cell.failed = true;
            cell.failReason = job.spec.kind == ShardSpec::Kind::Cycle
                ? "cycle " + std::to_string(job.spec.cycle) + ": "
                    + settled.reason
                : settled.reason;
        }
    }
    cv.notify_all();
}

void
ShardDispatcher::drain(Cell &cell, const std::shared_ptr<Slot> &slot)
{
    for (;;) {
        size_t index = 0;
        unsigned attempt = 0;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] {
                return !cell.queue.empty() || cell.finished()
                    || slot->ended;
            });
            if (cell.finished() || slot->ended)
                break;
            if (stopRequested()) {
                cell.stopped = true;
                cv.notify_all();
                break;
            }
            index = cell.queue.front();
            cell.queue.pop_front();
            attempt = cell.jobs[index].attempts++;
        }
        ShardJob &job = cell.jobs[index];

        // Re-dispatch k (attempt k) first waits out backoff exponent
        // k - 1.
        if (attempt > 0) {
            sleepRetryBackoff(policy.backoffBaseMs, job.spec, attempt - 1,
                              policy.seed, metrics.link);
            if (stopRequested()) {
                settle(cell, index, {Settlement::Kind::Stop, {}});
                break;
            }
        }

        const ShardAttempt result = dispatchTimed(*slot, job.spec, attempt);
        if (result.outcome == ShardOutcome::Ok) {
            job.cycleOutcome = result.cycleOutcome;
            job.savfOutcome = result.savfOutcome;
            finishJob(cell, job);
            continue;
        }
        if (!result.retryable()) {
            // A deterministic worker error: re-dispatching cannot fix
            // it, so the cell fails.
            settle(cell, index, {Settlement::Kind::Fail, describe(result)});
            continue;
        }
        const bool retry = attempt < policy.maxRetries;
        davf_warn(metrics.prefix, ": shard (", job.spec.structure,
                  ", cycle ", job.spec.cycle, ") attempt ", attempt,
                  " failed on '", slot->name, "' (", result.detail, "); ",
                  retry ? "re-dispatching" : "retries used up");
        if (retry) {
            metrics.retries.add(1);
            requeue(cell, index, false);
            continue;
        }
        size_t quarantined = 0;
        {
            const std::lock_guard<std::mutex> lock(mutex);
            quarantined = cell.quarantined.size();
        }
        settle(cell, index,
               retriesExhausted(*slot, job, result, quarantined));
    }

    {
        const std::lock_guard<std::mutex> lock(mutex);
        --cell.dispatchers;
    }
    cv.notify_all();
}

ShardDispatcher::CellResult
ShardDispatcher::runCell(std::vector<ShardJob> jobs,
                         const std::function<void(ShardJob &)> &deliver)
{
    const std::lock_guard<std::mutex> serial(cellMutex);
    Cell cell;
    cell.jobs = std::move(jobs);
    cell.deliver = deliver;
    cell.outstanding = cell.jobs.size();
    for (size_t i = 0; i < cell.jobs.size(); ++i)
        cell.queue.push_back(i);

    std::vector<std::thread> threads;
    std::set<uint64_t> started;
    bool warned_orphans = false;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        // Live slots get dispatch threads in slot order, a slot that
        // joins mid-cell included (addSlot() wakes this loop), but no
        // more threads than shards left: an extra one would only idle,
        // and a process slot would start a worker for nothing.
        for (const std::shared_ptr<Slot> &slot : slots) {
            if (cell.dispatchers >= cell.outstanding)
                break;
            if (started.insert(slot->id).second) {
                ++cell.dispatchers;
                threads.emplace_back(
                    [this, &cell, slot] { drain(cell, slot); });
            }
        }
        if (cell.finished())
            break;
        if (stopRequested()) {
            cell.stopped = true;
            break;
        }
        if (cell.dispatchers == 0 && !cell.queue.empty()) {
            // No slot is left to take the queue: the source settles it.
            if (!warned_orphans) {
                davf_warn(metrics.prefix, ": no workers left; ",
                          cell.queue.size(),
                          " remaining shard(s) go to the fallback");
                warned_orphans = true;
            }
            const size_t index = cell.queue.front();
            cell.queue.pop_front();
            lock.unlock();
            settle(cell, index, orphaned(cell.jobs[index]));
            lock.lock();
            continue;
        }
        cv.wait_for(lock, kStopPollInterval);
    }
    lock.unlock();
    cv.notify_all();
    for (std::thread &thread : threads)
        thread.join();

    CellResult result;
    result.failed = cell.failed;
    result.failReason = std::move(cell.failReason);
    result.stopped = cell.stopped;
    result.quarantined = std::move(cell.quarantined);
    return result;
}

std::vector<std::vector<size_t>>
ShardDispatcher::exclusions(const std::string &structure,
                            double delay_fraction,
                            const std::vector<uint64_t> &cycles,
                            const SamplingConfig &sampling)
{
    // A quarantined injection names one (cycle, wire index) pair. A
    // loaded record applies only while its index still names its wire
    // in this cell's sampled order; the config hash does not cover the
    // netlist.
    std::vector<std::vector<size_t>> lists(cycles.size());
    if (known.empty())
        return lists;
    const std::vector<WireId> wires = sampledWires(structure, sampling);
    for (const QuarantineRecord &record : known) {
        if (record.structure != structure
            || record.delayFraction != delay_fraction
            || record.seed != sampling.seed
            || record.wireIndex >= wires.size()
            || wires[record.wireIndex] != record.wire)
            continue;
        for (size_t i = 0; i < cycles.size(); ++i) {
            if (cycles[i] == record.cycle)
                lists[i].push_back(record.wireIndex);
        }
    }
    for (std::vector<size_t> &list : lists)
        std::sort(list.begin(), list.end());
    return lists;
}

ShardDispatcher::CellResult
ShardDispatcher::runDavfCell(
    const std::string &structure, double delay_fraction,
    const std::vector<uint64_t> &cycles, const SamplingConfig &sampling,
    const std::function<void(const InjectionCycleOutcome &)>
        &on_cycle_done)
{
    std::vector<std::vector<size_t>> excluded =
        exclusions(structure, delay_fraction, cycles, sampling);
    std::vector<ShardJob> jobs(cycles.size());
    for (size_t i = 0; i < cycles.size(); ++i) {
        ShardSpec &spec = jobs[i].spec;
        spec.kind = ShardSpec::Kind::Cycle;
        spec.structure = structure;
        spec.delayFraction = delay_fraction;
        spec.cycle = cycles[i];
        spec.quarantined = std::move(excluded[i]);
        spec.sampling = sampling;
    }
    return runCell(std::move(jobs), [&](ShardJob &job) {
        if (on_cycle_done)
            on_cycle_done(job.cycleOutcome);
    });
}

ShardDispatcher::CellResult
ShardDispatcher::runSavfCell(const std::string &structure,
                             const SamplingConfig &sampling, SavfResult &out)
{
    std::vector<ShardJob> jobs(1);
    jobs[0].spec.kind = ShardSpec::Kind::Savf;
    jobs[0].spec.structure = structure;
    jobs[0].spec.sampling = sampling;
    return runCell(std::move(jobs),
                   [&](ShardJob &job) { out = job.savfOutcome; });
}

void
ShardDispatcher::shutdown()
{
    stopAdmitting();
    std::vector<std::shared_ptr<Slot>> gone;
    {
        const std::lock_guard<std::mutex> lock(mutex);
        gone.swap(slots);
        for (const std::shared_ptr<Slot> &slot : gone)
            slot->ended = true;
    }
    std::vector<FrameLink *> links;
    for (const std::shared_ptr<Slot> &slot : gone) {
        if (FrameLink *link = slot->link())
            links.push_back(link);
    }
    quitAndDrain(links, kQuitGraceMs);
    for (const std::shared_ptr<Slot> &slot : gone)
        slot->close();
}

} // namespace davf
