/**
 * @file
 * Shared declarations of the davf_e2e harness: the workload shapes,
 * child-process plumbing, and the untraced workload and traced layer
 * entry points.
 */

#ifndef DAVF_BENCH_E2E_HARNESS_HH
#define DAVF_BENCH_E2E_HARNESS_HH

#include <sys/resource.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "e2e.hh"
#include "service/protocol.hh"
#include "util/subprocess.hh"

namespace davf::e2e {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** What every workload and the traced pass share. */
struct RunConfig
{
    std::string toolsDir; ///< Absolute directory of davf_run and friends.
    uint64_t seed = 1;
    double seconds = 30.0; ///< Measurement window per workload.
    bool pinning = false;  ///< Record output digests instead of checking.
};

/** A LO:HI:STEP delay list as the tools take it. */
struct DelaySpec
{
    double lo = 0.0;
    double hi = 0.0;
    double step = 1.0;

    /** The flag text, "LO:HI:STEP". */
    std::string text() const;

    /** The fractions davf_run and davf_client expand it into. */
    std::vector<double> fractions() const;
};

/** Compute threads and worker processes/nodes: sized for 4 cores. */
inline constexpr unsigned kThreads = 4;
inline constexpr unsigned kWorkers = 3;

/** Measured units per run: at most this many, whatever the window. */
inline constexpr size_t kMaxUnits = 64;

/**
 * @name The sweep query
 * The paper's Fig. 9 computation (ALU DelayAVF across nine delays on
 * one Beebs benchmark), scaled so one invocation takes a few seconds on
 * four cores and a run holds several. bubblesort has the shortest
 * golden run of the paper's five. The injection cycles are evenly
 * spaced; the sampling seed picks which 600 of the ALU's ~5.4k wires
 * are sampled, and that choice alone moves an invocation's compute time
 * by 10-25%. So the sweep workloads cycle through a fixed pool of
 * samples, whose reports are pinned in digests.txt, in an order the
 * seed picks. Only the isolation mode differs between the three sweep
 * workloads, so all three must print the pinned bytes.
 */
/// @{
inline constexpr const char *kSweepBenchmark = "bubblesort";
inline constexpr const char *kSweepStructure = "ALU";
inline constexpr DelaySpec kSweepDelays{0.1, 0.9, 0.1};
inline constexpr unsigned kSweepCycles = 4;
inline constexpr unsigned kSweepWires = 600;
inline constexpr uint64_t kSweepSamples[] = {1, 2, 3};

/** davf_run flags of the sweep query for sampling seed @p sample. */
std::vector<std::string> sweepQueryArgs(uint64_t sample);

/** The digests.txt name of the report of sampling seed @p sample. */
std::string sweepDigestName(uint64_t sample);
/// @}

/**
 * @name The served mix
 * kServeClients closed-loop connections, each sending
 * kServeQueriesPerClient queries with Zipf shares 1/(rank+1)^1.1 of a
 * pool of 20 small specs (5 structures x 2 delay lists x 2 sampling
 * seeds), on a server whose 32-entry memory tier pushes most hits to
 * disk. Sessions are short so a run holds several server starts, and
 * each start sends the queries in its own order (sessionMix).
 */
/// @{
inline constexpr const char *kServeBenchmark = "libstrstr";
inline constexpr unsigned kServeCycles = 2;
inline constexpr unsigned kServeWires = 30;
inline constexpr size_t kServePoolSize = 20;
inline constexpr size_t kServeMemCapacity = 32;
inline constexpr size_t kServeClients = 2;
inline constexpr size_t kServeQueriesPerClient = 32;
inline constexpr double kZipfS = 1.1;

/** One pool entry: the query and the davf_run flags that equal it. */
struct ServeSpec
{
    service::QuerySpec query;
    DelaySpec delays;

    std::vector<std::string> runArgs() const;
};

/** The pool, hottest Zipf rank first; the same for every seed. */
std::vector<ServeSpec> servePool();

/**
 * The query order of the @p session-th server start of a run seeded
 * with @p seed: every start sends the same multiset of ranks, each in
 * its own order, dealt to kServeClients clients.
 */
std::vector<std::vector<size_t>> sessionMix(uint64_t seed, size_t session);

/** The digests.txt name of the sorted distinct served replies. */
inline constexpr const char *kServeDigestName = "serve-mix";

/** SHA-256 of the distinct reply bodies (rank -> body), sorted, each
 *  followed by a newline. */
std::string repliesDigest(const std::map<size_t, std::string> &bodies);
/// @}

/** Rows and summed injections of one davf-report/v1 line. */
struct ReportScan
{
    size_t davfRows = 0;
    uint64_t injections = 0;
    uint64_t minRowInjections = 0;
};

ReportScan scanReport(const std::string &report);

/**
 * The pinned SHA-256 named @p name in digests.txt, or "" if none is
 * pinned. Throws DavfError{Io} if digests.txt cannot be read.
 */
std::string pinnedDigest(const std::string &name);

/** A reaped child exited normally with code 0. */
inline bool
succeeded(const ExitStatus &status)
{
    return status.exited && status.code == 0;
}

/**
 * A fork/exec'd tool process. With an empty log path its stdout and
 * stderr are pipes the owner drains (runToExit); otherwise stdout goes
 * to /dev/null and stderr to the log file. A child still running when
 * the object dies is SIGKILLed and reaped.
 */
class Child
{
  public:
    Child() = default;
    ~Child();

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    void spawn(const std::vector<std::string> &argv,
               const std::string &log_path = "");

    bool running() const { return pid > 0 && !reaped; }

    /** Reap without blocking; true once the child has exited. */
    bool tryReap();

    /** Blocking reap (cached once reaped). */
    ExitStatus wait();

    /** SIGTERM, up to @p grace_s for exit, then SIGKILL; reaps. */
    ExitStatus terminate(double grace_s);

    /** Drain the pipes until both close, then reap. @p on_line sees
     *  each stderr line as it arrives; @p on_tick runs about every
     *  10 ms. Returns the captured stdout. */
    std::string
    runToExit(const std::function<void(const std::string &)> &on_line,
              const std::function<void()> &on_tick);

    const ExitStatus &exitStatus() const { return status; }

  private:
    void setExit(int wstatus, const struct rusage &usage);

    pid_t pid = -1;
    int outFd = -1;
    int errFd = -1;
    bool reaped = false;
    ExitStatus status;
};

/** User + system CPU seconds of every reaped child of this process. */
double childCpuSeconds();

/** Whether a pass was correct, and how many requests it made and lost. */
struct Outcome
{
    bool correct = true;
    std::vector<std::string> problems; ///< The first few, for stderr.
    uint64_t attempted = 0; ///< Units, queries or timed layer calls.
    uint64_t failed = 0;    ///< Those that failed.

    /** Mark the pass incorrect because of @p what. */
    void problem(const std::string &what);

    /**
     * Compare @p digest, computed from outputs, with the digest pinned
     * under @p name; when @p pinning, record it without the check.
     */
    void checkDigest(const std::string &name, const std::string &digest,
                     bool pinning);

    /** digests.txt name -> digest of every output checked. */
    std::map<std::string, std::string> digests;
};

/** One workload's measured outcome. */
struct WorkloadResult : Outcome
{
    std::string name;

    /** End-to-end metric name -> one sample per measured unit. */
    std::map<std::string, std::vector<double>> samples;

    /** Round trip of every answered query, for the tail percentile;
     *  the per-unit medians are in samples. */
    std::vector<double> latenciesMs;
};

/** One end-to-end metric of a workload, as printed and written. */
struct MetricRow
{
    std::string name;
    std::string unit;
    Quartiles q; ///< q1 = median = q3 for a single value.
    size_t n = 0;
};

/**
 * The rows of @p result in table order: quartiles of the per-unit
 * samples, the largest peak RSS of any unit, the highest query-latency
 * percentile with ten samples beyond it over all answered queries, and
 * the failed fraction.
 */
std::vector<MetricRow> metricRows(const WorkloadResult &result);

/** The four workload names, in run order. */
const std::vector<std::string> &workloadNames();

/** Run one workload for cfg.seconds; @p name is from workloadNames(). */
WorkloadResult runWorkload(const std::string &name, const RunConfig &cfg);

/** One per-layer metric of the traced pass. */
struct LayerMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t n = 0; ///< Samples behind the value.
};

/** Outcome of the traced pass. */
struct TracedResult : Outcome
{
    std::vector<LayerMetric> metrics;
};

/**
 * Replay the sweep and serve workloads in-process, timing each layer's
 * public calls from outside with @p spans.
 */
TracedResult runTraced(const RunConfig &cfg, SpanRecorder &spans);

} // namespace davf::e2e

#endif // DAVF_BENCH_E2E_HARNESS_HH
