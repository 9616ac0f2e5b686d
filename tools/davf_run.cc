/**
 * @file
 * Command-line front end for DelayAVF analyses — the equivalent of the
 * paper artifact's `run_all.sh` + configuration-json workflow (paper
 * appendix E): pick a benchmark/payload, a structure, a delay range,
 * sampling rates, and the ECC switch, and get DelayAVF / OrDelayAVF /
 * sAVF rows on stdout or as CSV.
 *
 * Sweeps run through the resilient campaign layer (src/campaign/):
 * SIGINT/SIGTERM stop cooperatively between injections after flushing
 * the journal and CSV, `--checkpoint` journals progress after every
 * injection cycle, and `--resume` continues an interrupted sweep with
 * bit-identical aggregate results (see docs/ROBUSTNESS.md).
 *
 * Usage:
 *   davf_run [options]
 *     --benchmark NAME     md5|bubblesort|libstrstr|libfibcall|matmult|
 *                          crc32|popcount              (default libstrstr)
 *     --structure NAME     ALU|Decoder|Regfile|LSU|Prefetch (default ALU)
 *     --delays LO:HI:STEP  delay fractions of the period, 0 <= LO <= HI
 *                          <= 1, STEP > 0 (default 0.1:0.9:0.2)
 *     --ecc                protect the register file with SEC ECC
 *     --cycles N           injection cycles (default 8)
 *     --wires N            wire sample per structure, 0 = all (default 400)
 *     --flops N            flop sample for sAVF, 0 = all (default 96)
 *     --seed N             sampling seed (default 1)
 *     --threads N          worker threads, 0 = all cores (default 0)
 *     --savf               also run particle-strike sAVF on the structure
 *     --attribution        per-instruction root-cause attribution: tag
 *                          every injection with the in-flight
 *                          instruction and walk each ACE outcome
 *                          forward to the first architecturally-
 *                          corrupted instruction (docs/ANALYSIS.md);
 *                          adds an attribution table to the text
 *                          report, an "attribution" array to --json
 *                          rows, and a FILE.attr sibling to --csv
 *     --sta-period         use the STA longest path as the clock (default:
 *                          observed-max timing-closure emulation)
 *     --json               print the structured report (core/report
 *                          reportJson) instead of the human tables; the
 *                          line is byte-identical to a davf_serve reply
 *                          for the same query
 *     --csv FILE           write results as CSV (atomic rewrite)
 *     --checkpoint FILE    journal campaign progress to FILE
 *     --resume FILE        resume the campaign journaled in FILE
 *     --timeout-ms X       wall-clock budget per continuation simulation
 *                          (0 = none)
 *     --max-failure-rate X abandon a cell if > X of injections fail
 *                          (default 0.05)
 *     --isolate MODE       thread (default), process, or net:
 *                            process — run injection cycles in
 *                          supervised worker processes that are
 *                          respawned on crash/hang/OOM, with retry,
 *                          crash bisection, and quarantine (see
 *                          docs/ROBUSTNESS.md);
 *                            net — dispatch shards to davf_worker
 *                          nodes over TCP with heartbeats, retry,
 *                          lost nodes retired, and graceful local
 *                          fallback (see docs/DISTRIBUTED.md)
 *     --workers N          worker processes for --isolate process
 *                          (default 1)
 *     --listen HOST:PORT   coordinator bind address for --isolate net
 *                          (default 127.0.0.1:0 — an ephemeral port)
 *     --port-file FILE     write the resolved listen port to FILE
 *                          (atomic), so scripts can start workers
 *     --min-nodes N        wait for N connected nodes before starting
 *                          the sweep (default 1; 0 starts immediately)
 *     --node-wait-ms X     how long to wait for --min-nodes before
 *                          proceeding with whatever connected
 *                          (default 30000)
 *     --store-dir D        content-addressed result store as the
 *                          campaign's cache tier in every isolation
 *                          mode: stored shards are not recomputed,
 *                          fresh ones are written back (read-only when
 *                          another process, e.g. a davf_serve, owns D)
 *     --max-retries N      re-dispatches per shard after a failure
 *                          (default 2)
 *     --backoff-ms X       base of the exponential retry backoff
 *                          (default 50)
 *     --worker-mem-mb N    RLIMIT_AS cap per worker in MiB, 0 = none
 *                          (default 0; incompatible with ASan)
 *     --shard-timeout-ms X wall-clock budget per shard attempt, 0 = none
 *     --quarantine-dir D   persist quarantine records (one file per
 *                          isolated injection) under D
 *     --shard-metrics-csv F  append per-attempt wall/RSS/CPU metrics
 *     --metrics-json FILE  enable metric collection and write the
 *                          registry snapshot (davf-metrics v1 JSON) to
 *                          FILE after the run (see docs/OBSERVABILITY.md)
 *     --trace-json FILE    enable span tracing and write a Chrome
 *                          trace_event JSON to FILE after the run (open
 *                          in chrome://tracing or ui.perfetto.dev)
 *     --list               list benchmarks and structures, then exit
 *
 * The hidden --worker-shard and --worker-period flags (WorkerFlags in
 * service/cli.hh) turn the process into a campaign worker; they are
 * appended when the supervisor re-executes this binary.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/stop.hh"
#include "campaign/supervisor.hh"
#include "core/report.hh"
#include "core/vulnerability.hh"
#include "isa/benchmarks.hh"
#include "net/coordinator.hh"
#include "net/frame.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/cli.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "service/workspace.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace davf;

namespace {

struct Options
{
    service::QuerySpec query = service::defaultQuery();
    unsigned threads = 0;
    bool json = false;
    std::string csv_path;
    std::string checkpoint_path;
    bool resume = false;

    IsolationMode isolate = IsolationMode::Thread;
    std::string listen = "127.0.0.1:0";
    std::string port_file;
    size_t min_nodes = 1;
    double node_wait_ms = 30000.0;
    std::string store_dir;
    SupervisorOptions fleet; ///< The dispatch and worker-pool flags.
    std::string metrics_json_path;
    std::string trace_json_path;
    service::WorkerFlags worker;
};

/** Reject the run: usage + the offending flag/value, exit nonzero. */
[[noreturn]] void
usageError(const char *argv0, const std::string &detail)
{
    std::fprintf(stderr,
                 "usage: %s [--benchmark N] [--structure N] "
                 "[--delays LO:HI:STEP]\n"
                 "          [--ecc] [--cycles N] [--wires N] [--flops N]"
                 " [--seed N]\n"
                 "          [--threads N] [--savf] [--attribution]\n"
                 "          [--sta-period] "
                 "[--json] [--csv FILE]\n"
                 "          [--checkpoint FILE] [--resume FILE] "
                 "[--timeout-ms X]\n"
                 "          [--max-failure-rate X] "
                 "[--isolate thread|process|net] [--workers N]\n"
                 "          [--listen HOST:PORT] [--port-file FILE] "
                 "[--min-nodes N]\n"
                 "          [--node-wait-ms X] [--store-dir D]\n"
                 "          [--max-retries N] [--backoff-ms X]"
                 " [--worker-mem-mb N]\n"
                 "          [--shard-timeout-ms X] [--quarantine-dir D]\n"
                 "          [--shard-metrics-csv FILE]\n"
                 "          [--metrics-json FILE] [--trace-json FILE] "
                 "[--list]\n",
                 argv0);
    std::fprintf(stderr, "error: %s\n", detail.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
try {
    Options opts;
    auto need = [&](int &i) { return service::flagValue(argc, argv, i); };

    for (int i = 1; i < argc; ++i) {
        if (service::parseQueryFlag(argc, argv, i, opts.query)
            || opts.worker.parse(argc, argv, i))
            continue;
        const std::string arg = argv[i];
        if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--threads") {
            opts.threads =
                static_cast<unsigned>(parseU64Strict(need(i), arg));
        } else if (arg == "--csv") {
            opts.csv_path = need(i);
        } else if (arg == "--checkpoint") {
            opts.checkpoint_path = need(i);
        } else if (arg == "--resume") {
            opts.checkpoint_path = need(i);
            opts.resume = true;
        } else if (arg == "--isolate") {
            const std::string mode = need(i);
            if (mode == "thread")
                opts.isolate = IsolationMode::Thread;
            else if (mode == "process")
                opts.isolate = IsolationMode::Process;
            else if (mode == "net")
                opts.isolate = IsolationMode::Net;
            else
                usageError(argv[0],
                           "--isolate expects 'thread', 'process', or "
                           "'net', got '" + mode + "'");
        } else if (arg == "--listen") {
            opts.listen = need(i);
        } else if (arg == "--port-file") {
            opts.port_file = need(i);
        } else if (arg == "--min-nodes") {
            opts.min_nodes =
                static_cast<size_t>(parseU64Strict(need(i), arg));
        } else if (arg == "--node-wait-ms") {
            opts.node_wait_ms = parseDoubleStrict(need(i), arg);
            if (opts.node_wait_ms < 0.0)
                usageError(argv[0], "--node-wait-ms must be >= 0");
        } else if (arg == "--store-dir") {
            opts.store_dir = need(i);
        } else if (arg == "--workers") {
            opts.fleet.workers =
                static_cast<unsigned>(parseU64Strict(need(i), arg));
            if (opts.fleet.workers == 0)
                usageError(argv[0], "--workers must be >= 1");
        } else if (arg == "--max-retries") {
            opts.fleet.maxRetries =
                static_cast<unsigned>(parseU64Strict(need(i), arg));
        } else if (arg == "--backoff-ms") {
            opts.fleet.backoffBaseMs = parseDoubleStrict(need(i), arg);
            if (opts.fleet.backoffBaseMs < 0.0)
                usageError(argv[0], "--backoff-ms must be >= 0");
        } else if (arg == "--worker-mem-mb") {
            opts.fleet.workerMemMb = parseU64Strict(need(i), arg);
        } else if (arg == "--shard-timeout-ms") {
            opts.fleet.shardTimeoutMs = parseDoubleStrict(need(i), arg);
            if (opts.fleet.shardTimeoutMs < 0.0)
                usageError(argv[0], "--shard-timeout-ms must be >= 0");
        } else if (arg == "--quarantine-dir") {
            opts.fleet.quarantineDir = need(i);
        } else if (arg == "--shard-metrics-csv") {
            opts.fleet.metricsCsvPath = need(i);
        } else if (arg == "--metrics-json") {
            opts.metrics_json_path = need(i);
        } else if (arg == "--trace-json") {
            opts.trace_json_path = need(i);
        } else if (arg == "--list") {
            std::printf("benchmarks:");
            for (const auto &program : beebsBenchmarks())
                std::printf(" %s", program.name.c_str());
            for (const auto &program : extraBenchmarks())
                std::printf(" %s", program.name.c_str());
            std::printf("\nstructures: ALU Decoder Regfile LSU "
                        "Prefetch\n");
            std::exit(0);
        } else {
            usageError(argv[0], "unknown flag '" + arg + "'");
        }
    }

    opts.worker.check(opts.query.workspace);
    return opts;
} catch (const DavfError &error) {
    // The shared parsers name the flag and its bad value.
    usageError(argv[0], error.what());
}

/**
 * Export the metric snapshot / Chrome trace requested on the command
 * line. Called once, after the campaign completes (on every exit path,
 * including interrupted and partially-failed runs — a cancelled sweep's
 * phase profile is exactly when you want the numbers).
 */
void
exportObservability(const Options &opts)
{
    if (!opts.metrics_json_path.empty()) {
        writeFileAtomic(opts.metrics_json_path,
                        obs::MetricsRegistry::instance().snapshot()
                                .toJson()
                            + "\n");
        std::fprintf(stderr, "metrics snapshot written to '%s'\n",
                     opts.metrics_json_path.c_str());
    }
    if (!opts.trace_json_path.empty()) {
        writeFileAtomic(opts.trace_json_path,
                        obs::Trace::toChromeJson() + "\n");
        std::fprintf(stderr, "chrome trace written to '%s'\n",
                     opts.trace_json_path.c_str());
    }
}

int
runTool(int argc, char **argv)
{
    const Options opts = parse(argc, argv);

    // Observability is opt-in per run: metric collection (cheap striped
    // counters) whenever either export is requested, span tracing only
    // when a trace file is. Worker-shard processes inherit the flags
    // via the forwarded argv but exit before the export — under
    // --isolate process the engine-phase counters live in the workers
    // (docs/OBSERVABILITY.md).
    if (!opts.metrics_json_path.empty() || !opts.trace_json_path.empty())
        obs::MetricsRegistry::setEnabled(true);
    if (!opts.trace_json_path.empty())
        obs::Trace::setEnabled(true);

    // The shared Workspace loader performs the whole expensive setup —
    // assemble, SoC build, golden capture — identically to davf_serve
    // and the bench harnesses (see src/service/workspace.hh).
    const service::QuerySpec &query = opts.query;
    std::fprintf(stderr, "building IbexMini (%s regfile), assembling "
                 "%s, running golden capture...\n",
                 query.workspace.ecc ? "ECC" : "plain",
                 query.workspace.benchmark.c_str());
    service::Workspace workspace(query.workspace,
                                 opts.worker.workspaceOptions(opts.threads));

    if (!workspace.structures().find(query.structure)) {
        usageError(argv[0], "--structure: unknown structure '"
                                + query.structure + "' (try --list)");
    }

    // Hidden worker mode: same engine build as above, then serve shard
    // requests from the supervising campaign over stdin/stdout.
    if (const std::optional<int> code = opts.worker.serve(workspace))
        return *code;
    VulnerabilityEngine &engine = workspace.engine();
    std::fprintf(stderr, "%s\n\n", goldenLine(engine).c_str());

    CampaignOptions campaign_options = service::queryCampaign(query);
    campaign_options.sampling.threads = opts.threads;
    campaign_options.checkpointPath = opts.checkpoint_path;
    campaign_options.resume = opts.resume;
    campaign_options.csvPath = opts.csv_path;
    campaign_options.stopFlag = &installStopHandlers();
    campaign_options.isolate = opts.isolate;

    // The result store as the campaign's cache tier, in every isolation
    // mode. Only the parent opens it: worker mode has returned above.
    std::unique_ptr<service::ResultStore> store;
    if (!opts.store_dir.empty()) {
        service::ResultStore::Options store_options;
        store_options.dir = opts.store_dir;
        store = std::make_unique<service::ResultStore>(store_options);
        campaign_options.cache =
            service::shardCacheHooks(*store, workspace.fingerprint());
    }

    // Net mode: bind the coordinator, publish the port, give the fleet
    // a chance to assemble, and hand the dispatcher to the campaign.
    // Aggregation still runs through the same journal path, so the
    // report is byte-identical to a thread-mode run.
    std::unique_ptr<net::Coordinator> coordinator;
    if (opts.isolate == IsolationMode::Net) {
        std::string host;
        uint16_t port = 0;
        net::parseHostPort(opts.listen, host, port);
        net::ListenSocket listener = net::listenTcp(host, port);
        if (!opts.port_file.empty()) {
            writeFileAtomic(opts.port_file,
                            std::to_string(listener.port) + "\n");
        }
        std::fprintf(stderr, "coordinator listening on %s:%u\n",
                     host.c_str(), listener.port);

        net::CoordinatorOptions net_options;
        net_options.fingerprint = workspace.fingerprint();
        if (!query.workspace.staPeriod)
            net_options.clockPeriod = engine.clockPeriod();
        net_options.maxRetries = opts.fleet.maxRetries;
        net_options.backoffBaseMs = opts.fleet.backoffBaseMs;
        net_options.shardTimeoutMs = opts.fleet.shardTimeoutMs;
        net_options.seed = query.sampling.seed;
        net_options.stopFlag = campaign_options.stopFlag;
        net_options.localCycle = [&](const ShardSpec &spec) {
            return engine.delayAvfCycle(
                workspace.structure(spec.structure), spec.delayFraction,
                spec.cycle, spec.sampling, spec.wireBegin, spec.wireEnd,
                spec.quarantined);
        };
        net_options.localSavf = [&](const ShardSpec &spec) {
            return engine.savf(workspace.structure(spec.structure),
                               spec.sampling);
        };

        coordinator = std::make_unique<net::Coordinator>(
            listener, std::move(net_options));
        if (opts.min_nodes > 0) {
            const size_t nodes = coordinator->waitForNodes(
                opts.min_nodes, opts.node_wait_ms);
            std::fprintf(stderr, "%zu node(s) connected\n", nodes);
            if (nodes < opts.min_nodes) {
                std::fprintf(stderr,
                             "proceeding anyway; missing shards run "
                             "locally\n");
            }
        }
        campaign_options.dispatcher = coordinator.get();
    }

    if (opts.isolate == IsolationMode::Process) {
        campaign_options.supervisor = opts.fleet;
        // Workers re-execute this binary with the same arguments (so
        // they build the same engine) plus the hidden worker flags; the
        // period rides along so they skip the timed golden pass.
        campaign_options.supervisor.workerArgv =
            service::WorkerFlags::commandLine(
                workspace, std::vector<std::string>(argv + 1, argv + argc));
    }

    Campaign campaign(engine, workspace.structures(), campaign_options);
    const CampaignSummary summary = campaign.run();

    // Release the fleet before exporting metrics, so the shutdown
    // drain (and its counters) land in the snapshot.
    if (coordinator)
        coordinator->shutdown();

    exportObservability(opts);

    if (opts.json) {
        // The structured report: the same rows, in the same order, as a
        // davf_serve reply for this query (davf rows per delay, then
        // the sAVF row), so the two outputs compare byte-for-byte.
        std::printf("%s\n",
                    reportJson(reportRows(
                                   summary, campaign_options.structureLabel))
                        .c_str());
        if (summary.interrupted)
            return 130;
        return summary.cellsFailed > 0 ? 3 : 0;
    }

    std::printf("%-8s%12s%12s%10s%10s%8s%8s%9s\n", "d", "DelayAVF",
                "OrDelayAVF", "static", "dynamic", "SDC", "DUE",
                "skipped");
    for (const CampaignCellResult &cell : summary.cells) {
        if (cell.key.kind != "davf")
            continue;
        if (cell.failed) {
            std::printf("%-8.2f  [failed: %s]\n", cell.delay,
                        cell.failReason.c_str());
            continue;
        }
        const DelayAvfResult &result = cell.davf;
        std::printf("%-8.2f%12.5f%12.5f%10.3f%10.3f%8llu%8llu%9llu%s\n",
                    cell.delay, result.delayAvf, result.orDelayAvf,
                    result.staticWireFraction,
                    result.dynamicWireFraction,
                    static_cast<unsigned long long>(result.sdc),
                    static_cast<unsigned long long>(result.due),
                    static_cast<unsigned long long>(
                        result.skippedErrors),
                    cell.fromCheckpoint ? "  (resumed)" : "");
    }

    for (const CampaignCellResult &cell : summary.cells) {
        if (cell.key.kind != "davf" || cell.failed
            || !cell.davf.attrValid) {
            continue;
        }
        std::printf("\nattribution (d=%.2f): injection site -> first "
                    "corruption\n", cell.delay);
        std::printf("%-12s%-22s%12s%12s%12s\n", "pc", "instruction",
                    "injections", "delay-ace", "corrupted");
        for (const DelayAvfResult::AttrRow &row : cell.davf.attribution) {
            std::printf("0x%08llx  %-22s%12llu%12llu%12llu\n",
                        static_cast<unsigned long long>(row.pc),
                        row.mnemonic.c_str(),
                        static_cast<unsigned long long>(row.injections),
                        static_cast<unsigned long long>(row.delayAce),
                        static_cast<unsigned long long>(
                            row.firstCorruptions));
            for (const auto &[dest, count] : row.destinations) {
                std::printf("%-12s  -> %s: %llu\n", "",
                            dest.c_str(),
                            static_cast<unsigned long long>(count));
            }
        }
    }

    for (const CampaignCellResult &cell : summary.cells) {
        if (cell.key.kind != "savf" || cell.failed)
            continue;
        const SavfResult &savf = cell.savf;
        if (savf.injections == 0) {
            std::printf("\nsAVF: structure has no flops\n");
            continue;
        }
        std::printf("\nsAVF = %.5f (%llu/%llu ACE; SDC %llu, "
                    "DUE %llu)%s\n",
                    savf.savf,
                    static_cast<unsigned long long>(savf.aceInjections),
                    static_cast<unsigned long long>(savf.injections),
                    static_cast<unsigned long long>(savf.sdc),
                    static_cast<unsigned long long>(savf.due),
                    cell.fromCheckpoint ? "  (resumed)" : "");
    }

    if (!summary.quarantined.empty()) {
        std::fprintf(stderr, "\n%zu injection(s) quarantined this run:\n",
                     summary.quarantined.size());
        for (const QuarantineRecord &record : summary.quarantined) {
            std::fprintf(stderr, "  %s\n",
                         serializeQuarantineRecord(record).c_str());
        }
    }

    if (summary.interrupted) {
        std::fprintf(stderr,
                     "\ninterrupted: progress %s; rerun with --resume "
                     "to continue\n",
                     opts.checkpoint_path.empty()
                         ? "not journaled (no --checkpoint)"
                         : ("saved to '" + opts.checkpoint_path + "'")
                               .c_str());
        return 130;
    }
    return summary.cellsFailed > 0 ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] { return runTool(argc, argv); });
}
