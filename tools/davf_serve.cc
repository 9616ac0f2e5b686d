/**
 * @file
 * The DelayAVF query service: one long-lived process that owns a built
 * Workspace (SoC + golden-captured engine), a persistent result store,
 * and a query scheduler, and answers DelayAVF/sAVF queries from
 * concurrent clients over a Unix-domain socket (see docs/SERVICE.md).
 *
 * A repeated query is served from the store without simulating; a
 * served reply is byte-identical to what a cold `davf_run --json` of
 * the same query prints.
 *
 * Usage:
 *   davf_serve --socket PATH [options]
 *     --socket PATH        Unix-domain socket to listen on (required)
 *     --store-dir DIR      persistent record directory (default: the
 *                          store is memory-only)
 *     --mem-capacity N     in-memory LRU tier entries (default 4096)
 *     --benchmark NAME     workload (default libstrstr)
 *     --ecc                protect the register file with SEC ECC
 *     --sta-period         STA longest path as the clock (default:
 *                          observed-max timing-closure emulation)
 *     --threads N          engine compute threads, 0 = all cores
 *     --isolate MODE       thread (default) or process: compute misses
 *                          in supervised worker processes
 *     --workers N          worker processes for --isolate process
 *     --max-retries N      re-dispatches per shard after a failure
 *     --worker-mem-mb N    RLIMIT_AS cap per worker in MiB, 0 = none
 *
 * The hidden --worker-shard and --worker-period flags (WorkerFlags in
 * service/cli.hh) turn the process into a campaign worker; they are
 * appended when the server's supervisor re-executes this binary.
 */

#include <malloc.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/supervisor.hh"
#include "obs/metrics.hh"
#include "service/cli.hh"
#include "service/protocol.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "service/workspace.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/subprocess.hh"

using namespace davf;
using namespace davf::service;

namespace {

struct Options
{
    std::string socket_path;
    std::string store_dir;
    size_t mem_capacity = 4096;
    WorkspaceSpec workspace;
    unsigned threads = 0;
    bool isolate_process = false;
    SupervisorOptions pool; ///< The worker-pool flags.
    WorkerFlags worker;
};

[[noreturn]] void
usageError(const char *argv0, const std::string &detail)
{
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--store-dir DIR] "
                 "[--mem-capacity N]\n"
                 "          [--benchmark N] [--ecc] [--sta-period] "
                 "[--threads N]\n"
                 "          [--isolate thread|process] [--workers N] "
                 "[--max-retries N]\n"
                 "          [--worker-mem-mb N]\n",
                 argv0);
    std::fprintf(stderr, "error: %s\n", detail.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
try {
    Options opts;
    auto need = [&](int &i) { return flagValue(argc, argv, i); };
    for (int i = 1; i < argc; ++i) {
        if (parseWorkspaceFlag(argc, argv, i, opts.workspace)
            || opts.worker.parse(argc, argv, i))
            continue;
        const std::string arg = argv[i];
        if (arg == "--socket") {
            opts.socket_path = need(i);
        } else if (arg == "--store-dir") {
            opts.store_dir = need(i);
        } else if (arg == "--mem-capacity") {
            opts.mem_capacity =
                static_cast<size_t>(parseU64Strict(need(i), arg));
        } else if (arg == "--threads") {
            opts.threads =
                static_cast<unsigned>(parseU64Strict(need(i), arg));
        } else if (arg == "--isolate") {
            const std::string mode = need(i);
            if (mode == "process")
                opts.isolate_process = true;
            else if (mode == "thread")
                opts.isolate_process = false;
            else
                usageError(argv[0], "--isolate expects 'thread' or "
                                    "'process', got '" + mode + "'");
        } else if (arg == "--workers") {
            opts.pool.workers =
                static_cast<unsigned>(parseU64Strict(need(i), arg));
            if (opts.pool.workers == 0)
                usageError(argv[0], "--workers must be >= 1");
        } else if (arg == "--max-retries") {
            opts.pool.maxRetries =
                static_cast<unsigned>(parseU64Strict(need(i), arg));
        } else if (arg == "--worker-mem-mb") {
            opts.pool.workerMemMb = parseU64Strict(need(i), arg);
        } else {
            usageError(argv[0], "unknown flag '" + arg + "'");
        }
    }
    if (!opts.worker.shard && opts.socket_path.empty())
        usageError(argv[0], "--socket is required");
    opts.worker.check(opts.workspace);
    return opts;
} catch (const DavfError &error) {
    // The shared parsers name the flag and its bad value.
    usageError(argv[0], error.what());
}

/** One client connection: a reader loop plus one in-flight query. */
class Connection
{
  public:
    Connection(int the_fd, QueryScheduler &the_scheduler,
               const WorkspaceSpec &the_spec)
        : fd(the_fd), scheduler(&the_scheduler), spec(&the_spec)
    {}

    ~Connection()
    {
        cancel = true;
        if (worker.joinable())
            worker.join();
        ::close(fd);
    }

    void
    serve()
    {
        std::string payload;
        while (readFrameFd(fd, payload)) {
            Result<ClientFrame> frame = parseClientFrame(payload);
            if (!frame) {
                sendError(frame.error());
                continue;
            }
            switch (frame.value().verb) {
              case ClientFrame::Verb::Query:
                startQuery(std::move(frame.value().query));
                break;
              case ClientFrame::Verb::Cancel:
                // No direct reply: the in-flight query (if any) answers
                // with "err timeout query cancelled".
                cancel = true;
                break;
              case ClientFrame::Verb::Stats: {
                ServerReply reply;
                reply.ok = true;
                reply.tag = "stats";
                reply.body = scheduler->statsJson();
                send(reply);
                break;
              }
              case ClientFrame::Verb::Quit: {
                ServerReply reply;
                reply.ok = true;
                reply.tag = "bye";
                send(reply);
                return;
              }
            }
        }
    }

  private:
    void
    send(const ServerReply &reply)
    {
        const std::lock_guard<std::mutex> lock(writeMutex);
        try {
            writeFrameFd(fd, serializeServerReply(reply));
        } catch (const DavfError &error) {
            // The client hung up mid-reply; the reader loop will see
            // EOF and wind the connection down.
            davf_warn("client write failed: ", error.what());
        }
    }

    void
    sendError(const DavfError &error)
    {
        ServerReply reply;
        reply.errorKind = std::string(errorKindName(error.kind()));
        reply.message = error.what();
        send(reply);
    }

    void
    startQuery(QuerySpec query)
    {
        if (busy.load()) {
            sendError(DavfError(ErrorKind::BadArgument,
                                "a query is already in flight on this "
                                "connection"));
            return;
        }
        if (worker.joinable())
            worker.join();
        busy = true;
        cancel = false;
        worker = std::thread([this, query = std::move(query)] {
            if (!(query.workspace == *spec)) {
                busy = false;
                sendError(DavfError(
                    ErrorKind::BadArgument,
                    "workspace mismatch: this server runs '"
                        + serializeWorkspaceSpec(*spec) + "', query "
                        + "names '"
                        + serializeWorkspaceSpec(query.workspace) + "'"));
                return;
            }
            Result<QueryScheduler::QueryReply> result =
                scheduler->run(query, &cancel);
            busy = false;
            if (!result) {
                sendError(result.error());
                return;
            }
            ServerReply reply;
            reply.ok = true;
            reply.tag = "report";
            reply.body = std::move(result.value().reportJson);
            send(reply);
        });
    }

    int fd;
    QueryScheduler *scheduler;
    const WorkspaceSpec *spec;
    std::mutex writeMutex;
    std::atomic<bool> cancel{false};
    std::atomic<bool> busy{false};
    std::thread worker;
};

int
runTool(int argc, char **argv)
{
    const Options opts = parse(argc, argv);

    // A client that vanishes mid-reply must surface as EPIPE on that
    // connection's write, not a process-fatal SIGPIPE for the whole
    // server. (The Supervisor constructor also sets this, but only in
    // --isolate process mode.)
    ::signal(SIGPIPE, SIG_IGN);

    // Pin glibc's mmap threshold at its default. Left dynamic, the
    // first free of a large mmapped buffer raises it, after which the
    // engine's per-cycle buffers (~230 KiB) land in per-thread arenas
    // and the server's peak RSS depends on allocation history: on the
    // bench/e2e serve mix (4 vCPUs) it swung between ~26.7 and
    // ~29.4 MiB across runs doing identical work.
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    // The server always collects metrics: a long-lived process wants
    // its registry live so the `stats` verb can report it, and the
    // striped counters are too cheap to merit a knob here.
    obs::MetricsRegistry::setEnabled(true);

    std::fprintf(stderr,
                 "building workspace (%s, %s regfile, %s clock)...\n",
                 opts.workspace.benchmark.c_str(),
                 opts.workspace.ecc ? "ECC" : "plain",
                 opts.workspace.staPeriod ? "STA" : "observed-max");
    Workspace workspace(opts.workspace,
                        opts.worker.workspaceOptions(opts.threads));

    // Hidden worker mode: same workspace build, then serve shard
    // requests from the server's supervisor over stdin/stdout.
    if (const std::optional<int> code = opts.worker.serve(workspace))
        return *code;

    VulnerabilityEngine &engine = workspace.engine();
    std::fprintf(stderr, "%s, fingerprint %s\n",
                 goldenLine(engine).c_str(),
                 workspace.fingerprint().c_str());

    ResultStore::Options store_options;
    store_options.dir = opts.store_dir;
    store_options.memCapacity = opts.mem_capacity;
    ResultStore store(store_options);

    // Process isolation: one worker pool serves every query's misses.
    // Workers re-execute this binary with the workspace flags (so they
    // build the same engine) plus the hidden worker flags; the period
    // rides along so they skip the timed golden pass.
    std::unique_ptr<Supervisor> supervisor;
    if (opts.isolate_process) {
        SupervisorOptions sup = opts.pool;
        sup.workerArgv = WorkerFlags::commandLine(workspace);
        sup.configHash = workspace.fingerprint();
        sup.benchmark = opts.workspace.benchmark;
        supervisor = std::make_unique<Supervisor>(
            engine, workspace.structures(), std::move(sup));
    }

    QueryScheduler::Options sched_options;
    sched_options.benchmark = opts.workspace.benchmark;
    sched_options.structureLabel = opts.workspace.ecc ? " (ECC)" : "";
    sched_options.threads = opts.threads;
    sched_options.dispatcher = supervisor.get();
    QueryScheduler scheduler(engine, workspace.structures(),
                             workspace.fingerprint(), store,
                             std::move(sched_options));

    // Bind last, so the socket file appearing means "ready to serve".
    const int listen_fd = listenUnix(opts.socket_path);
    std::fprintf(stderr, "listening on %s\n", opts.socket_path.c_str());

    while (true) {
        const int client_fd = ::accept(listen_fd, nullptr, nullptr);
        if (client_fd < 0) {
            // A dialer that gave up between connect and accept
            // (ECONNABORTED) — or a transient kernel shortage — is
            // that connection's problem, not the server's.
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE) {
                // Out of descriptors: shed load instead of dying; the
                // pause lets in-flight connections finish and release.
                davf_warn("accept: ", std::strerror(errno),
                          "; backing off");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                continue;
            }
            davf_throw(ErrorKind::Io, "accept: ", std::strerror(errno));
        }
        std::thread([client_fd, &scheduler, &opts] {
            try {
                Connection connection(client_fd, scheduler,
                                      opts.workspace);
                connection.serve();
            } catch (const DavfError &error) {
                // A torn frame or dead socket ends this client only.
                davf_warn("connection closed: ", error.what());
            }
        }).detach();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] { return runTool(argc, argv); });
}
