#include "shard_link.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/shard.hh"
#include "obs/trace.hh"
#include "util/clock.hh"
#include "util/hash.hh"

namespace davf {

namespace {

constexpr double kHeartbeatIntervalMs = 200.0;

/** Idle read budget between shards; a timeout just reads again. */
constexpr double kIdleReadMs = 1000.0;

/** Doublings past this stop growing the backoff (and keep the shift
 *  defined for any retry budget). */
constexpr unsigned kMaxBackoffDoublings = 10;

/**
 * Sends "hb" frames while a shard computes, so the parent can tell a
 * slow shard from a dead worker. Frame writes from this thread and the
 * reply path share one mutex: frames must never interleave.
 */
class Heartbeat
{
  public:
    Heartbeat(FrameLink &the_link, std::mutex &the_mutex)
        : link(the_link), writeMutex(the_mutex)
    {
        thread = std::thread([this] { run(); });
    }

    ~Heartbeat()
    {
        done.store(true, std::memory_order_relaxed);
        thread.join();
    }

  private:
    void
    run()
    {
        double last_beat = nowMs();
        while (!done.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            if (nowMs() - last_beat < kHeartbeatIntervalMs)
                continue;
            last_beat = nowMs();
            try {
                const std::lock_guard<std::mutex> lock(writeMutex);
                link.send("hb");
            } catch (const DavfError &) {
                return; // The parent hung up; stop beating.
            }
        }
    }

    FrameLink &link;
    std::mutex &writeMutex;
    std::atomic<bool> done{false};
    std::thread thread;
};

/** The " rss <kb> <user> <sys>" suffix of an ok reply. */
std::string
selfRusageSuffix()
{
    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, " rss %ld %.3f %.3f",
                  ru.ru_maxrss,
                  static_cast<double>(ru.ru_utime.tv_sec)
                      + static_cast<double>(ru.ru_utime.tv_usec) * 1e-6,
                  static_cast<double>(ru.ru_stime.tv_sec)
                      + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6);
    return buffer;
}

} // namespace

void
withHeartbeat(FrameLink &link, const std::function<void()> &work)
{
    std::mutex write_mutex;
    const Heartbeat heartbeat(link, write_mutex);
    work();
}

LinkMetrics::LinkMetrics(const std::string &prefix)
    : dispatchSpan(prefix + ".dispatch"), backoffSpan(prefix + ".backoff"),
      dispatches(prefix + ".dispatches"), heartbeats(prefix + ".heartbeats"),
      backoffWaits(prefix + ".backoff_waits"),
      dispatchNs(prefix + ".time.dispatch_ns"),
      backoffNs(prefix + ".time.backoff_ns"),
      shardWallUs(prefix + ".shard_wall_us")
{
}

ShardReply
exchangeShard(FrameLink &link, const ShardSpec &spec,
              double heartbeat_timeout_ms, double shard_timeout_ms,
              double started_ms, const LinkMetrics &metrics)
{
    using Status = ShardReply::Status;
    ShardReply reply;
    auto finish = [&](Status status, std::string detail) {
        reply.status = status;
        reply.detail = std::move(detail);
        return reply;
    };

    try {
        link.send("shard " + serializeShardSpec(spec));
    } catch (const DavfError &error) {
        return finish(Status::SendFailed,
                      std::string("send failed: ") + error.what());
    }

    const double deadline =
        shard_timeout_ms > 0.0 ? started_ms + shard_timeout_ms : 0.0;
    const std::string over_budget = "shard exceeded its "
        + std::to_string(shard_timeout_ms) + " ms budget";
    std::string frame;
    for (;;) {
        double budget = heartbeat_timeout_ms;
        if (deadline > 0.0) {
            const double remaining = deadline - nowMs();
            if (remaining <= 0.0)
                return finish(Status::Deadline, over_budget);
            budget = std::min(budget, remaining);
        }

        FrameLink::ReadStatus st;
        try {
            st = link.read(frame, budget);
        } catch (const DavfError &error) {
            // No frame boundary to recover to: the stream is unusable.
            return finish(Status::Torn, error.what());
        }
        if (st == FrameLink::ReadStatus::Eof)
            return finish(Status::Eof,
                          "peer closed the connection mid-shard");
        if (st == FrameLink::ReadStatus::Timeout) {
            if (deadline > 0.0 && nowMs() < deadline)
                continue; // The heartbeat window is rearmed per frame.
            if (deadline > 0.0)
                return finish(Status::Deadline, over_budget);
            return finish(Status::Silent,
                          "no heartbeat within "
                              + std::to_string(heartbeat_timeout_ms)
                              + " ms");
        }

        if (frame == "hb") {
            metrics.heartbeats.add(1);
            continue;
        }

        std::istringstream is(frame);
        std::string tag;
        is >> tag;
        if (tag == "err") {
            std::string kind;
            is >> kind;
            std::string message;
            std::getline(is, message);
            if (!message.empty() && message.front() == ' ')
                message.erase(0, 1);
            return finish(Status::WorkerError, kind + ": " + message);
        }
        if (tag == "ok") {
            std::string what;
            is >> what;
            bool ok = false;
            if (what == "davf" && spec.kind == ShardSpec::Kind::Cycle)
                ok = parseOutcomeFields(is, reply.cycleOutcome);
            else if (what == "savf" && spec.kind == ShardSpec::Kind::Savf)
                ok = parseSavfFields(is, reply.savfOutcome);
            std::string rss_tag;
            if (ok && (is >> rss_tag) && rss_tag == "rss")
                is >> reply.rssKb >> reply.userSec >> reply.sysSec;
            if (ok)
                return finish(Status::Ok, "");
        }
        // The frame arrived intact, so framing is still in sync; the
        // payload is garbage.
        return finish(Status::BadReply,
                      "unparseable reply: " + frame.substr(0, 120));
    }
}

double
retryBackoffMs(double base_ms, const ShardSpec &spec, unsigned attempt,
               uint64_t seed)
{
    const uint64_t jitter = fnv1a64(
        spec.structure + ':' + std::to_string(spec.cycle) + ':'
        + std::to_string(attempt) + ':' + std::to_string(seed));
    return base_ms
        * static_cast<double>(1u << std::min(attempt, kMaxBackoffDoublings))
        + static_cast<double>(jitter % 1000) / 1000.0 * base_ms;
}

void
sleepRetryBackoff(double base_ms, const ShardSpec &spec, unsigned attempt,
                  uint64_t seed, const LinkMetrics &metrics)
{
    if (base_ms <= 0.0)
        return;
    const double delay_ms = retryBackoffMs(base_ms, spec, attempt, seed);
    metrics.backoffWaits.add(1);
    const obs::Span span(metrics.backoffSpan.c_str(), &metrics.backoffNs);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
}

void
quitAndDrain(const std::vector<FrameLink *> &links, double grace_ms)
{
    std::vector<FrameLink *> live;
    for (FrameLink *link : links) {
        try {
            link->send("quit");
            live.push_back(link);
        } catch (const DavfError &) {
            // Already gone; nothing to drain.
        }
    }
    const double deadline = nowMs() + grace_ms;
    for (FrameLink *link : live) {
        try {
            std::string frame;
            for (;;) {
                const double remaining = deadline - nowMs();
                if (remaining <= 0.0
                    || link->read(frame, remaining)
                        != FrameLink::ReadStatus::Frame)
                    break; // EOF (a clean exit) or a hung worker.
            }
        } catch (const DavfError &) {
            // A torn tail at shutdown is not worth reporting.
        }
    }
}

ServeEnd
serveShards(FrameLink &link, VulnerabilityEngine &engine,
            const StructureRegistry &registry, ShardHook *hook)
{
    std::mutex write_mutex;
    auto send = [&](const std::string &payload) {
        const std::lock_guard<std::mutex> lock(write_mutex);
        link.send(payload);
    };

    std::string frame;
    for (;;) {
        const FrameLink::ReadStatus st = link.read(frame, kIdleReadMs);
        if (st == FrameLink::ReadStatus::Timeout)
            continue; // Idle between shards.
        if (st == FrameLink::ReadStatus::Eof)
            return ServeEnd::Eof;
        if (frame == "quit")
            return ServeEnd::Quit;
        if (frame.rfind("shard ", 0) != 0) {
            send("err bad-input unknown frame");
            continue;
        }
        Result<ShardSpec> parsed = parseShardSpec(frame.substr(6));
        if (!parsed) {
            send(std::string("err bad-input ") + parsed.error().what());
            continue;
        }
        const ShardSpec &spec = parsed.value();
        const Structure *structure = registry.find(spec.structure);
        if (!structure) {
            send("err not-found unknown structure '" + spec.structure
                 + "'");
            continue;
        }
        if (hook && !hook->beforeShard(spec))
            return ServeEnd::Hook;

        // Workers compute one shard at a time; inner threading would
        // multiply workers times threads.
        SamplingConfig sampling = spec.sampling;
        sampling.threads = 1;

        std::string reply;
        try {
            const Heartbeat heartbeat(link, write_mutex);
            if (spec.kind == ShardSpec::Kind::Cycle) {
                reply = "ok davf "
                    + serializeOutcomeFields(engine.delayAvfCycle(
                        *structure, spec.delayFraction, spec.cycle,
                        sampling, spec.wireBegin, spec.wireEnd,
                        spec.quarantined));
            } else {
                reply = "ok savf "
                    + serializeSavfFields(engine.savf(*structure, sampling));
            }
            reply += selfRusageSuffix();
        } catch (const std::bad_alloc &) {
            // The parent reads exit code 86 as "memory cap tripped",
            // distinct from a crash.
            ::_exit(86);
        } catch (const DavfError &error) {
            reply = std::string("err ")
                + std::string(errorKindName(error.kind())) + " "
                + error.what();
        } catch (const std::exception &error) {
            reply = std::string("err exception ") + error.what();
        }
        if (!hook || hook->beforeReply(spec, reply))
            send(reply);
    }
}

} // namespace davf
