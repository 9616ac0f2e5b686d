/**
 * @file
 * davf_e2e: the repository's end-to-end benchmark (bench/e2e/README.md).
 *
 * Usage:
 *   davf_e2e [--workload NAME|all] [--seed N] [--seconds S]
 *            [--out FILE] [--trace FILE] [--pin]
 *     --workload NAME  sweep-thread, sweep-process, sweep-net, serve-mix,
 *                      or all (default)
 *     --seed N         order of the sweep samples and the served
 *                      queries (default 1)
 *     --seconds S      measurement window per workload (default 30)
 *     --out FILE       write the davf-bench-e2e/v1 result JSON
 *     --trace FILE     instead of the workloads, run the traced pass
 *                      and write its spans as Chrome trace JSON
 *     --pin            instead of the workloads, print the output
 *                      digests in digests.txt format
 *
 * Prints one table row per (metric, workload) — or per layer metric
 * with --trace — and exits 1, printing no table, when any output fails
 * its correctness check or any request fails; 2 on a usage error.
 */

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "harness.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace davf;
using namespace davf::e2e;

namespace {

struct Options
{
    std::string workload = "all";
    uint64_t seed = 1;
    double seconds = RunConfig{}.seconds;
    std::string outPath;
    std::string tracePath;
    bool pin = false;
};

[[noreturn]] void
usageError(const std::string &detail)
{
    std::fprintf(stderr,
                 "usage: davf_e2e [--workload NAME|all] [--seed N] "
                 "[--seconds S]\n"
                 "                [--out FILE] [--trace FILE] [--pin]\n"
                 "error: %s\n",
                 detail.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opts;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(argv[i]) + " expects a value");
        return argv[++i];
    };
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--workload") {
                opts.workload = need(i);
            } else if (arg == "--seed") {
                opts.seed = parseU64Strict(need(i), arg);
            } else if (arg == "--seconds") {
                opts.seconds = parseDoubleStrict(need(i), arg);
                if (!(opts.seconds > 0.0 && opts.seconds <= 600.0))
                    usageError("--seconds must lie in (0, 600]");
            } else if (arg == "--out") {
                opts.outPath = need(i);
            } else if (arg == "--trace") {
                opts.tracePath = need(i);
            } else if (arg == "--pin") {
                opts.pin = true;
            } else {
                usageError("unknown flag '" + arg + "'");
            }
        }
    } catch (const DavfError &error) {
        usageError(error.what());
    }
    const auto &names = workloadNames();
    if (opts.workload != "all"
        && std::find(names.begin(), names.end(), opts.workload)
               == names.end()) {
        usageError("unknown workload '" + opts.workload + "'");
    }
    return opts;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonProblems(const std::vector<std::string> &problems)
{
    std::string out = "[";
    for (size_t i = 0; i < problems.size(); ++i) {
        if (i)
            out += ',';
        out += jsonString(problems[i]);
    }
    return out + "]";
}

std::string
jsonDigests(const std::map<std::string, std::string> &digests)
{
    std::string out = "{";
    for (const auto &[name, digest] : digests) {
        if (out.size() > 1)
            out += ',';
        out += jsonString(name) + ":" + jsonString(digest);
    }
    return out + "}";
}

std::string
workloadJson(const WorkloadResult &result)
{
    std::ostringstream os;
    os << jsonString(result.name) << ":{\"correct\":"
       << (result.correct ? "true" : "false")
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed
       << ",\"digests\":" << jsonDigests(result.digests)
       << ",\"problems\":" << jsonProblems(result.problems)
       << ",\"metrics\":{";
    if (result.correct) {
        bool first = true;
        for (const MetricRow &row : metricRows(result)) {
            os << (first ? "" : ",") << jsonString(row.name)
               << ":{\"median\":" << formatNumber(row.q.median)
               << ",\"q1\":" << formatNumber(row.q.q1)
               << ",\"q3\":" << formatNumber(row.q.q3)
               << ",\"n\":" << row.n
               << ",\"unit\":" << jsonString(row.unit) << "}";
            first = false;
        }
    }
    os << "}}";
    return os.str();
}

/** Calls, total and self seconds of all spans of one name. */
struct SpanTotals
{
    size_t calls = 0;
    double totalS = 0.0;
    double selfS = 0.0;
};

std::map<std::string, SpanTotals>
spanTotals(const SpanRecorder &spans)
{
    const std::vector<SpanRecord> &records = spans.spans();
    const std::vector<double> self = selfTimes(records);
    std::map<std::string, SpanTotals> totals;
    for (size_t i = 0; i < records.size(); ++i) {
        SpanTotals &entry = totals[records[i].name];
        ++entry.calls;
        entry.totalS += (records[i].endUs - records[i].startUs) * 1e-6;
        entry.selfS += self[i] * 1e-6;
    }
    return totals;
}

std::string
layersJson(const TracedResult &result,
           const std::map<std::string, SpanTotals> &totals)
{
    std::ostringstream os;
    os << "{\"correct\":" << (result.correct ? "true" : "false")
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed
       << ",\"problems\":" << jsonProblems(result.problems)
       << ",\"metrics\":{";
    bool first = true;
    for (const LayerMetric &metric : result.metrics) {
        if (!result.correct)
            break;
        os << (first ? "" : ",") << jsonString(metric.name)
           << ":{\"value\":" << formatNumber(metric.value)
           << ",\"unit\":" << jsonString(metric.unit)
           << ",\"n\":" << metric.n << "}";
        first = false;
    }
    os << "},\"spans\":{";
    first = true;
    for (const auto &[name, entry] : totals) {
        os << (first ? "" : ",") << jsonString(name)
           << ":{\"calls\":" << entry.calls
           << ",\"total_s\":" << formatNumber(entry.totalS)
           << ",\"self_s\":" << formatNumber(entry.selfS) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

void
writeJson(const std::string &path, const std::string &json)
{
    const JsonCheck check = jsonValidate(json);
    davf_assert(check.valid, "harness emitted invalid JSON (",
                check.message, " at byte ", check.offset, ")");
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << json << "\n";
    if (!file)
        davf_throw(ErrorKind::Io, "cannot write '", path, "'");
}

void
reportProblems(const std::string &what,
               const std::vector<std::string> &problems)
{
    for (const std::string &problem : problems)
        std::fprintf(stderr, "%s: %s\n", what.c_str(), problem.c_str());
}

int
runHarness(const Options &opts, const std::filesystem::path &work_dir,
           const RunConfig &cfg)
{
    const std::filesystem::path home = std::filesystem::current_path();
    auto absolute = [&](const std::string &path) {
        return path.empty() ? path : (home / path).string();
    };
    const std::string out_path = absolute(opts.outPath);
    const std::string trace_path = absolute(opts.tracePath);

    std::filesystem::remove_all(work_dir);
    std::filesystem::create_directories(work_dir);
    std::filesystem::current_path(work_dir);

    std::ostringstream json;
    json << "{\"schema\":\"davf-bench-e2e/v1\",\"seed\":" << cfg.seed
         << ",\"seconds\":" << formatNumber(cfg.seconds);
    // Tables print only once every output has passed its check.
    bool ok = true;
    if (opts.pin) {
        // One pass over the sweep pool and one set of server starts
        // produce every pinned output.
        RunConfig pin_cfg = cfg;
        pin_cfg.pinning = true;
        pin_cfg.seconds = 1e-3;
        std::map<std::string, std::string> digests;
        for (const char *name : {"sweep-thread", "serve-mix"}) {
            const WorkloadResult result = runWorkload(name, pin_cfg);
            ok = ok && result.correct && result.failed == 0;
            reportProblems(name, result.problems);
            digests.insert(result.digests.begin(), result.digests.end());
        }
        if (ok) {
            for (const auto &[name, digest] : digests)
                std::printf("%s %s\n", name.c_str(), digest.c_str());
        }
    } else if (!opts.tracePath.empty()) {
        SpanRecorder spans;
        const TracedResult result = runTraced(cfg, spans);
        ok = result.correct && result.failed == 0;
        reportProblems("traced", result.problems);
        const std::map<std::string, SpanTotals> totals = spanTotals(spans);
        if (ok) {
            std::printf("%-26s %14s %-6s %6s\n", "layer metric", "value",
                        "unit", "n");
            for (const LayerMetric &metric : result.metrics) {
                std::printf("%-26s %14s %-6s %6zu\n", metric.name.c_str(),
                            formatNumber(metric.value).c_str(),
                            metric.unit.c_str(), metric.n);
            }
            std::printf("\n%-26s %8s %14s %14s\n", "span", "calls",
                        "total_s", "self_s");
            for (const auto &[name, entry] : totals) {
                std::printf("%-26s %8zu %14s %14s\n", name.c_str(),
                            entry.calls, formatNumber(entry.totalS).c_str(),
                            formatNumber(entry.selfS).c_str());
            }
        }
        writeJson(trace_path, spans.chromeJson());
        json << ",\"layers\":" << layersJson(result, totals);
    } else {
        std::vector<WorkloadResult> results;
        for (const std::string &name : workloadNames()) {
            if (opts.workload != "all" && opts.workload != name)
                continue;
            results.push_back(runWorkload(name, cfg));
            const WorkloadResult &result = results.back();
            ok = ok && result.correct && result.failed == 0;
            reportProblems(name, result.problems);
            std::fprintf(stderr, "%s: %s, %zu digests checked\n",
                         name.c_str(),
                         result.correct ? "correct" : "INCORRECT",
                         result.digests.size());
        }
        if (ok) {
            std::printf("%-18s %-14s %12s %12s %12s %4s %s\n", "metric",
                        "workload", "median", "q1", "q3", "n", "unit");
        }
        json << ",\"workloads\":{";
        for (size_t i = 0; i < results.size(); ++i) {
            for (const MetricRow &row :
                 ok ? metricRows(results[i]) : std::vector<MetricRow>{}) {
                std::printf("%-18s %-14s %12s %12s %12s %4zu %s\n",
                            row.name.c_str(), results[i].name.c_str(),
                            formatNumber(row.q.median).c_str(),
                            formatNumber(row.q.q1).c_str(),
                            formatNumber(row.q.q3).c_str(), row.n,
                            row.unit.c_str());
            }
            json << (i ? "," : "") << workloadJson(results[i]);
        }
        json << "}";
    }
    json << "}";
    std::filesystem::current_path(home);
    std::filesystem::remove_all(work_dir);
    if (!out_path.empty())
        writeJson(out_path, json.str());
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    // A server that dies mid-reply must surface as a failed query, not
    // end the harness.
    ::signal(SIGPIPE, SIG_IGN);

    // The tools and the work directory sit next to this binary, in
    // the build tree: the benchmark never writes outside it.
    const std::filesystem::path build_dir =
        std::filesystem::read_symlink("/proc/self/exe").parent_path();
    RunConfig cfg;
    cfg.toolsDir = (build_dir / "davf" / "tools").string();
    cfg.seed = opts.seed;
    cfg.seconds = opts.seconds;
    if (!std::filesystem::exists(cfg.toolsDir + "/davf_run")) {
        std::fprintf(stderr, "davf_e2e: no tools in %s; build the "
                     "davf_e2e project first\n", cfg.toolsDir.c_str());
        return 2;
    }
    const std::filesystem::path work_dir =
        build_dir / ("work-" + std::to_string(::getpid()));
    return guardedMain([&] { return runHarness(opts, work_dir, cfg); });
}
