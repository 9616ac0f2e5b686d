/**
 * @file
 * The untraced workloads: every number here is host time measured
 * around real tool processes (davf_run, davf_worker, davf_serve), the
 * way a user runs them. Each workload first runs one unmeasured
 * warm-up, then measured units until the window is spent; every output
 * is checked against the digests pinned in digests.txt.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "harness.hh"
#include "service/protocol.hh"
#include "util/subprocess.hh"

namespace davf::e2e {

namespace {

/** Measured units per run: at least this many, whatever the window, so
 *  a sweep run (and --pin) visits every sample of the pool. */
constexpr size_t kMinUnits = 3;
static_assert(kMinUnits >= std::size(kSweepSamples));

/** A tool that has not answered within this long counts as failed. */
constexpr double kStartupTimeoutS = 120.0;

/**
 * Run measured units until the window is spent: at least kMinUnits,
 * and another only while the last unit's duration still fits.
 * @p unit runs the k-th unit.
 */
void
measureWindow(const RunConfig &cfg, Clock::time_point start,
              const std::function<void(size_t)> &unit)
{
    double last_s = 0.0;
    for (size_t done = 0; done < kMaxUnits; ++done) {
        if (done >= kMinUnits && secondsSince(start) + last_s > cfg.seconds)
            break;
        const Clock::time_point unit_start = Clock::now();
        unit(done);
        last_s = secondsSince(unit_start);
    }
}

enum class Isolation { Thread, Process, Net };

/** One measured davf_run invocation. */
struct SweepUnit
{
    std::string error; ///< Empty when the invocation succeeded.
    std::string report;
    double setupS = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
    double rssMb = 0.0;
};

/** The port davf_run published in @p path, or "" while there is none. */
std::string
readPort(const std::string &path)
{
    std::ifstream file(path);
    std::string port;
    if (!(file >> port))
        return "";
    return port;
}

SweepUnit
runSweepUnit(const RunConfig &cfg, Isolation mode, uint64_t sample)
{
    std::vector<std::string> argv = {cfg.toolsDir + "/davf_run"};
    for (std::string &arg : sweepQueryArgs(sample))
        argv.push_back(std::move(arg));
    const std::string port_file = "net.port";
    if (mode == Isolation::Process) {
        argv.insert(argv.end(), {"--isolate", "process", "--workers",
                                 std::to_string(kWorkers)});
    } else if (mode == Isolation::Net) {
        ::unlink(port_file.c_str());
        argv.insert(argv.end(), {"--isolate", "net", "--min-nodes",
                                 std::to_string(kWorkers), "--port-file",
                                 port_file});
    }

    SweepUnit unit;
    std::vector<std::unique_ptr<Child>> nodes;
    const double cpu_before = childCpuSeconds();
    const Clock::time_point start = Clock::now();
    double setup_s = -1.0;
    Child run;
    run.spawn(argv);
    unit.report = run.runToExit(
        [&](const std::string &line) {
            if (setup_s < 0.0 && line.rfind("golden:", 0) == 0)
                setup_s = secondsSince(start);
        },
        [&] {
            // The loopback fleet joins as soon as the coordinator
            // publishes its port.
            if (mode != Isolation::Net || !nodes.empty())
                return;
            const std::string port = readPort(port_file);
            if (port.empty())
                return;
            for (unsigned k = 0; k < kWorkers; ++k) {
                const std::string node = "node-" + std::to_string(k);
                nodes.push_back(std::make_unique<Child>());
                nodes.back()->spawn({cfg.toolsDir + "/davf_worker",
                                     "--connect", "127.0.0.1:" + port,
                                     "--benchmark", kSweepBenchmark,
                                     "--node", node},
                                    node + ".log");
            }
        });
    unit.wallS = secondsSince(start);
    long rss_kb = run.exitStatus().maxRssKb;
    for (const auto &node : nodes) {
        const Clock::time_point quit = Clock::now();
        while (!node->tryReap() && secondsSince(quit) < 10.0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const ExitStatus exit = node->terminate(1.0);
        if (!succeeded(exit))
            unit.error = "davf_worker " + exit.describe();
        rss_kb = std::max(rss_kb, exit.maxRssKb);
    }
    unit.cpuS = childCpuSeconds() - cpu_before;
    unit.rssMb = static_cast<double>(rss_kb) / 1024.0;
    unit.setupS = setup_s;

    const ReportScan scan = scanReport(unit.report);
    const uint64_t per_row = uint64_t{kSweepCycles} * kSweepWires;
    if (!succeeded(run.exitStatus())) {
        unit.error = "davf_run " + run.exitStatus().describe();
    } else if (setup_s < 0.0) {
        unit.error = "davf_run printed no 'golden:' line";
    } else if (mode == Isolation::Net && nodes.size() != kWorkers) {
        unit.error = "the fleet never started (no port file)";
    } else if (scan.davfRows != kSweepDelays.fractions().size()
               || scan.minRowInjections != per_row) {
        unit.error = "report is missing rows or injections";
    }
    return unit;
}

WorkloadResult
runSweepWorkload(const std::string &name, Isolation mode,
                 const RunConfig &cfg)
{
    WorkloadResult result;
    result.name = name;
    const Clock::time_point start = Clock::now();
    const std::vector<size_t> order =
        poolOrder(cfg.seed, std::size(kSweepSamples));
    const auto sample_of = [&](size_t k) {
        return kSweepSamples[order[k % order.size()]];
    };

    // Warm-up: the run's first sample in thread mode, unmeasured.
    const SweepUnit warmup = runSweepUnit(cfg, Isolation::Thread,
                                          sample_of(0));
    if (!warmup.error.empty()) {
        result.problem("warm-up run: " + warmup.error);
        return result;
    }
    result.checkDigest(sweepDigestName(sample_of(0)),
                       sha256Hex(warmup.report), cfg.pinning);

    measureWindow(cfg, start, [&](size_t k) {
        const SweepUnit unit = runSweepUnit(cfg, mode, sample_of(k));
        ++result.attempted;
        if (!unit.error.empty()) {
            ++result.failed;
            result.problem(unit.error);
            return;
        }
        result.checkDigest(sweepDigestName(sample_of(k)),
                           sha256Hex(unit.report), cfg.pinning);
        const double injections =
            static_cast<double>(scanReport(unit.report).injections);
        result.samples["setup_s"].push_back(unit.setupS);
        result.samples["wall_s"].push_back(unit.wallS);
        result.samples["cpu_s"].push_back(unit.cpuS);
        result.samples["peak_rss_mb"].push_back(unit.rssMb);
        result.samples["injections_per_s"].push_back(
            injections / (unit.wallS - unit.setupS));
    });
    return result;
}

/** One query answered (or refused) by davf_serve. */
struct Served
{
    size_t rank = 0;
    double ms = 0.0;
    std::string body;  ///< Report JSON when the reply was ok.
    std::string error; ///< Empty when the reply was ok.
};

/** A client connection issuing its queries closed-loop. */
void
runClient(const std::string &socket, const std::vector<ServeSpec> &pool,
          const std::vector<size_t> &ranks, std::vector<Served> &out)
{
    int fd = -1;
    try {
        fd = service::connectUnix(socket);
        for (size_t rank : ranks) {
            Served served;
            served.rank = rank;
            const Clock::time_point sent = Clock::now();
            writeFrameFd(fd, service::makeQueryFrame(pool[rank].query));
            std::string payload;
            const bool got = readFrameFd(fd, payload);
            served.ms = secondsSince(sent) * 1e3;
            Result<service::ServerReply> reply =
                got ? service::parseServerReply(payload)
                    : Result<service::ServerReply>::Err(
                          ErrorKind::Io, "server closed the connection");
            if (!reply) {
                served.error = reply.error().what();
            } else if (!reply.value().ok || reply.value().tag != "report") {
                served.error = "server error [" + reply.value().errorKind
                    + "]: " + reply.value().message;
            } else {
                served.body = std::move(reply.value().body);
            }
            out.push_back(std::move(served));
        }
    } catch (const DavfError &error) {
        Served served;
        served.error = error.what();
        out.push_back(std::move(served));
    }
    if (fd >= 0)
        ::close(fd);
}

/** One davf_serve lifetime: start, the whole mix, stop. */
struct ServeSession
{
    std::string error;
    double setupS = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
    double rssMb = 0.0;
    std::vector<Served> replies;
};

/** Connect to @p socket and wait for the first ok stats reply. */
std::string
awaitReady(Child &server, const std::string &socket,
           Clock::time_point start)
{
    int fd = -1;
    while (fd < 0) {
        if (server.tryReap())
            return "davf_serve " + server.exitStatus().describe();
        if (secondsSince(start) > kStartupTimeoutS)
            return "davf_serve never became ready";
        try {
            fd = service::connectUnix(socket);
        } catch (const DavfError &) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    std::string error;
    try {
        writeFrameFd(fd, "stats");
        std::string payload;
        Result<service::ServerReply> reply =
            readFrameFd(fd, payload)
                ? service::parseServerReply(payload)
                : Result<service::ServerReply>::Err(ErrorKind::Io,
                                                    "no stats reply");
        if (!reply || !reply.value().ok || reply.value().tag != "stats")
            error = "davf_serve answered stats with: " + payload;
    } catch (const DavfError &failure) {
        error = failure.what();
    }
    ::close(fd);
    return error;
}

ServeSession
runServeSession(const RunConfig &cfg, const std::vector<ServeSpec> &pool,
                const std::vector<std::vector<size_t>> &mix, size_t index)
{
    // A fresh store per session: every session sees the same misses.
    const std::string store_dir = "store-" + std::to_string(index);
    const std::string socket = "serve.sock";
    std::filesystem::remove_all(store_dir);
    ::unlink(socket.c_str());

    ServeSession session;
    const double cpu_before = childCpuSeconds();
    const Clock::time_point start = Clock::now();
    Child server;
    server.spawn({cfg.toolsDir + "/davf_serve", "--socket", socket,
                  "--store-dir", store_dir, "--mem-capacity",
                  std::to_string(kServeMemCapacity), "--threads",
                  std::to_string(kThreads), "--benchmark",
                  kServeBenchmark},
                 "serve-" + std::to_string(index) + ".log");
    session.error = awaitReady(server, socket, start);
    if (!session.error.empty())
        return session;
    session.setupS = secondsSince(start);

    std::vector<std::vector<Served>> per_client(mix.size());
    {
        std::vector<std::thread> clients;
        for (size_t c = 0; c < mix.size(); ++c) {
            clients.emplace_back([&, c] {
                runClient(socket, pool, mix[c], per_client[c]);
            });
        }
        for (std::thread &client : clients)
            client.join();
    }
    session.wallS = secondsSince(start);
    const ExitStatus exit = server.terminate(5.0);
    session.cpuS = childCpuSeconds() - cpu_before;
    session.rssMb = static_cast<double>(exit.maxRssKb) / 1024.0;
    for (std::vector<Served> &replies : per_client) {
        for (Served &served : replies)
            session.replies.push_back(std::move(served));
    }
    std::filesystem::remove_all(store_dir);
    return session;
}

WorkloadResult
runServeWorkload(const RunConfig &cfg)
{
    WorkloadResult result;
    result.name = "serve-mix";
    const std::vector<ServeSpec> pool = servePool();
    const Clock::time_point start = Clock::now();

    // Warm-up: the hottest spec through davf_run --json. The served
    // reply for it must be the same bytes.
    std::vector<std::string> argv = {cfg.toolsDir + "/davf_run"};
    for (std::string &arg : pool[0].runArgs())
        argv.push_back(std::move(arg));
    Child reference;
    reference.spawn(argv);
    std::string reference_report =
        reference.runToExit([](const std::string &) {}, nullptr);
    if (!succeeded(reference.exitStatus())) {
        result.problem("reference davf_run "
                       + reference.exitStatus().describe());
        return result;
    }
    if (!reference_report.empty() && reference_report.back() == '\n')
        reference_report.pop_back();

    std::map<size_t, std::string> bodies; // rank -> reply body
    measureWindow(cfg, start, [&](size_t index) {
        const ServeSession session = runServeSession(
            cfg, pool, sessionMix(cfg.seed, index), index);
        ++result.attempted;
        if (!session.error.empty()) {
            ++result.failed;
            result.problem(session.error);
            return;
        }
        double injections = 0.0;
        std::vector<double> latencies_ms;
        for (const Served &served : session.replies) {
            ++result.attempted;
            if (!served.error.empty()) {
                ++result.failed;
                result.problem("query: " + served.error);
                continue;
            }
            const auto [it, fresh] = bodies.emplace(served.rank, served.body);
            if (!fresh && it->second != served.body) {
                result.problem("replies for pool spec "
                               + std::to_string(served.rank)
                               + " differ between store hits and misses");
            }
            injections +=
                static_cast<double>(scanReport(served.body).injections);
            latencies_ms.push_back(served.ms);
        }
        if (latencies_ms.empty())
            return;
        const size_t answered = latencies_ms.size();
        result.samples["query_p50_ms"].push_back(
            percentile(latencies_ms, 50));
        result.latenciesMs.insert(result.latenciesMs.end(),
                                  latencies_ms.begin(), latencies_ms.end());
        const double mix_s = session.wallS - session.setupS;
        result.samples["setup_s"].push_back(session.setupS);
        result.samples["wall_s"].push_back(session.wallS);
        result.samples["cpu_s"].push_back(session.cpuS);
        result.samples["peak_rss_mb"].push_back(session.rssMb);
        result.samples["injections_per_s"].push_back(injections / mix_s);
        result.samples["queries_per_s"].push_back(
            static_cast<double>(answered) / mix_s);
    });

    const auto hottest = bodies.find(0);
    if (hottest != bodies.end() && hottest->second != reference_report)
        result.problem("served reply differs from davf_run --json");

    // Every session sends every rank, so the distinct replies are the
    // same for every seed.
    result.checkDigest(kServeDigestName, repliesDigest(bodies), cfg.pinning);
    return result;
}

} // namespace

std::string
DelaySpec::text() const
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g:%g:%g", lo, hi, step);
    return buf;
}

std::vector<double>
DelaySpec::fractions() const
{
    // The range expansion of davf_run and davf_client, so a query names
    // exactly the delays a CLI sweep evaluates.
    std::vector<double> delays;
    for (double d = lo; d <= hi + 1e-9; d += step)
        delays.push_back(d);
    return delays;
}

std::vector<std::string>
sweepQueryArgs(uint64_t sample)
{
    return {"--json",
            "--benchmark", kSweepBenchmark,
            "--structure", kSweepStructure,
            "--delays", kSweepDelays.text(),
            "--cycles", std::to_string(kSweepCycles),
            "--wires", std::to_string(kSweepWires),
            "--threads", std::to_string(kThreads),
            "--seed", std::to_string(sample)};
}

std::string
sweepDigestName(uint64_t sample)
{
    return "sweep-" + std::to_string(sample);
}

std::vector<std::vector<size_t>>
sessionMix(uint64_t seed, size_t session)
{
    // Distinct mix seeds for every session of every run seed.
    return queryMix(seed * kMaxUnits + session, kServeClients,
                    kServeQueriesPerClient, kServePoolSize, kZipfS);
}

std::string
repliesDigest(const std::map<size_t, std::string> &bodies)
{
    std::set<std::string> distinct;
    for (const auto &[rank, body] : bodies)
        distinct.insert(body);
    std::string joined;
    for (const std::string &body : distinct)
        joined += body + "\n";
    return sha256Hex(joined);
}

std::vector<std::string>
ServeSpec::runArgs() const
{
    return {"--json",
            "--benchmark", query.workspace.benchmark,
            "--structure", query.structure,
            "--delays", delays.text(),
            "--cycles",
            std::to_string(query.sampling.maxInjectionCycles),
            "--wires", std::to_string(query.sampling.maxWires),
            "--threads", std::to_string(kThreads),
            "--seed", std::to_string(query.sampling.seed)};
}

std::vector<ServeSpec>
servePool()
{
    // Rank r queries structure r % 5 with variant r / 5 (two delay
    // lists x two sampling seeds). The pool and its Zipf ranks are the
    // same for every seed, which only orders the queries: query costs
    // span ~1 ms (an LSU hit) to ~400 ms (a miss with many errors), and
    // with seed-drawn wire samples and seed-permuted ranks the mix time
    // varied by ±25% and the median latency by ±10% across seeds.
    static const char *const kStructures[] = {"Decoder", "ALU", "LSU",
                                              "Prefetch", "Regfile"};
    constexpr DelaySpec kDelayLists[] = {{0.1, 0.9, 0.2}, {0.5, 0.9, 0.1}};
    constexpr uint64_t kSamplingSeeds[] = {1, 2};
    std::vector<ServeSpec> pool(kServePoolSize);
    for (size_t s = 0; s < 5; ++s) {
        for (size_t v = 0; v < 4; ++v) {
            ServeSpec &spec = pool[v * 5 + s];
            spec.delays = kDelayLists[v % 2];
            spec.query.workspace.benchmark = kServeBenchmark;
            spec.query.structure = kStructures[s];
            spec.query.delays = spec.delays.fractions();
            // davf_client's sampling defaults, so a served reply equals
            // davf_run --json of the same flags.
            SamplingConfig &sampling = spec.query.sampling;
            sampling.maxInjectionCycles = kServeCycles;
            sampling.maxWires = kServeWires;
            sampling.maxFlops = 96;
            sampling.maxFailureRate = 0.05;
            sampling.seed = kSamplingSeeds[v / 2];
        }
    }
    return pool;
}

ReportScan
scanReport(const std::string &report)
{
    ReportScan scan;
    const std::string kind = "\"kind\":\"davf\"";
    const std::string field = "\"injections\":";
    size_t pos = 0;
    while ((pos = report.find(kind, pos)) != std::string::npos) {
        const size_t at = report.find(field, pos);
        if (at == std::string::npos)
            break;
        const uint64_t count =
            std::strtoull(report.c_str() + at + field.size(), nullptr, 10);
        scan.minRowInjections = scan.davfRows == 0
            ? count
            : std::min(scan.minRowInjections, count);
        ++scan.davfRows;
        scan.injections += count;
        pos = at;
    }
    return scan;
}

std::string
pinnedDigest(const std::string &name)
{
    const char *path = DAVF_E2E_SOURCE_DIR "/digests.txt";
    std::ifstream file(path);
    if (!file)
        davf_throw(ErrorKind::Io, "cannot read pinned digests '", path, "'");
    std::string line;
    while (std::getline(file, line)) {
        std::istringstream is(line);
        std::string pinned_name;
        std::string digest;
        if (line.empty() || line[0] == '#' || !(is >> pinned_name >> digest))
            continue;
        if (pinned_name == name)
            return digest;
    }
    return "";
}

void
Outcome::problem(const std::string &what)
{
    correct = false;
    if (problems.size() < 8)
        problems.push_back(what);
}

void
Outcome::checkDigest(const std::string &name, const std::string &digest,
                     bool pinning)
{
    const auto [it, fresh] = digests.emplace(name, digest);
    if (!fresh) {
        if (it->second != digest)
            problem(name + ": outputs differ between units");
        return;
    }
    if (pinning)
        return;
    const std::string pinned = pinnedDigest(name);
    if (pinned.empty()) {
        problem("no digest pinned for " + name
                + " (davf_e2e --pin prints them)");
    } else if (pinned != digest) {
        problem(name + ": digest " + digest + " differs from the pinned "
                + pinned);
    }
}

std::vector<MetricRow>
metricRows(const WorkloadResult &result)
{
    std::vector<MetricRow> rows;
    const auto per_unit = [&](const char *name, const char *unit) {
        const auto it = result.samples.find(name);
        if (it != result.samples.end() && !it->second.empty()) {
            rows.push_back(
                {name, unit, quartiles(it->second), it->second.size()});
        }
    };
    const auto single = [&](std::string name, const char *unit, double value,
                            size_t n) {
        rows.push_back({std::move(name), unit, {value, value, value}, n});
    };
    per_unit("setup_s", "s");
    per_unit("wall_s", "s");
    per_unit("cpu_s", "s");
    // The run's peak: the samples of the pool differ in footprint, so
    // the per-unit median flips between them while the peak holds.
    const auto rss = result.samples.find("peak_rss_mb");
    if (rss != result.samples.end() && !rss->second.empty()) {
        single("peak_rss_mb", "MiB",
               *std::max_element(rss->second.begin(), rss->second.end()),
               rss->second.size());
    }
    per_unit("injections_per_s", "1/s");
    per_unit("query_p50_ms", "ms");
    const std::vector<double> &latencies = result.latenciesMs;
    const unsigned tail = tailPercentile(latencies.size());
    if (tail > 50) {
        single("query_p" + std::to_string(tail) + "_ms", "ms",
               percentile(latencies, tail), latencies.size());
    }
    per_unit("queries_per_s", "1/s");
    if (result.attempted > 0) {
        single("failed_frac", "ratio",
               static_cast<double>(result.failed)
                   / static_cast<double>(result.attempted),
               result.attempted);
    }
    return rows;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep-thread", "sweep-process", "sweep-net", "serve-mix"};
    return names;
}

WorkloadResult
runWorkload(const std::string &name, const RunConfig &cfg)
{
    if (name == "sweep-thread")
        return runSweepWorkload(name, Isolation::Thread, cfg);
    if (name == "sweep-process")
        return runSweepWorkload(name, Isolation::Process, cfg);
    if (name == "sweep-net")
        return runSweepWorkload(name, Isolation::Net, cfg);
    davf_assert(name == "serve-mix", "unknown workload ", name);
    return runServeWorkload(cfg);
}

} // namespace davf::e2e
