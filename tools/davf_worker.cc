/**
 * @file
 * The remote campaign worker node (see docs/DISTRIBUTED.md).
 *
 * One davf_worker builds the same workspace as its coordinator —
 * benchmark, ECC switch, clock model — through the untimed golden pass
 * only, then connects, introduces itself with the versioned hello
 * carrying the workspace build fingerprint, adopts the clock period
 * the coordinator's welcome carries (measuring its own only when the
 * welcome has none), and serves shards until told to quit. A coordinator built from a
 * different design/workload rejects the hello instead of silently
 * mixing results, so the only configuration that must agree here is
 * the workspace spec; every sampling knob arrives per-shard.
 *
 * Usage:
 *   davf_worker --connect HOST:PORT [options]
 *     --benchmark NAME        workload to build (default libstrstr);
 *                             must match the coordinator's
 *     --ecc                   protect the register file with SEC ECC
 *     --sta-period            use the STA longest path as the clock
 *     --node NAME             self-chosen node name shown in
 *                             coordinator logs (default node-<pid>)
 *     --connect-retries N     extra connect attempts with exponential
 *                             backoff (default 30) — a worker started
 *                             before its coordinator waits for it
 *     --backoff-ms X          base of the connect backoff (default 200)
 *     --connect-timeout-ms X  per-attempt connect timeout (default 5000)
 *
 * Exit codes: 0 after a clean quit, 1 for a lost/unreachable
 * coordinator, 2 for a rejected handshake.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/frame.hh"
#include "net/worker.hh"
#include "service/cli.hh"
#include "service/workspace.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace davf;

namespace {

struct Options
{
    std::string connect;
    service::WorkspaceSpec workspace;
    net::NetWorkerOptions net;
};

[[noreturn]] void
usageError(const char *argv0, const std::string &detail)
{
    std::fprintf(stderr,
                 "usage: %s --connect HOST:PORT [--benchmark N] [--ecc]"
                 " [--sta-period]\n"
                 "          [--node NAME] [--connect-retries N] "
                 "[--backoff-ms X]\n"
                 "          [--connect-timeout-ms X]\n",
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
        if (service::parseWorkspaceFlag(argc, argv, i, opts.workspace))
            continue;
        const std::string arg = argv[i];
        if (arg == "--connect") {
            opts.connect = need(i);
        } else if (arg == "--node") {
            opts.net.nodeName = need(i);
        } else if (arg == "--connect-retries") {
            opts.net.connectRetries =
                static_cast<unsigned>(parseU64Strict(need(i), arg));
        } else if (arg == "--backoff-ms") {
            opts.net.backoffBaseMs = parseDoubleStrict(need(i), arg);
            if (opts.net.backoffBaseMs < 0.0)
                usageError(argv[0], "--backoff-ms must be >= 0");
        } else if (arg == "--connect-timeout-ms") {
            opts.net.connectTimeoutMs =
                parseDoubleStrict(need(i), arg);
            if (opts.net.connectTimeoutMs < 0.0)
                usageError(argv[0], "--connect-timeout-ms must be >= 0");
        } else {
            usageError(argv[0], "unknown flag '" + arg + "'");
        }
    }

    if (opts.connect.empty())
        usageError(argv[0], "--connect HOST:PORT is required");
    return opts;
} catch (const DavfError &error) {
    // The shared parsers name the flag and its bad value.
    usageError(argv[0], error.what());
}

int
runTool(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    net::NetWorkerOptions net = opts.net;
    net::parseHostPort(opts.connect, net.host, net.port);

    std::fprintf(stderr,
                 "worker: building IbexMini (%s regfile), assembling "
                 "%s, running golden capture...\n",
                 opts.workspace.ecc ? "ECC" : "plain",
                 opts.workspace.benchmark.c_str());
    // The untimed golden pass is all the fingerprint needs; the clock
    // period arrives in the coordinator's welcome (runNetWorker).
    service::Workspace workspace(opts.workspace, {.measurePeriod = false});

    net.fingerprint = workspace.fingerprint();

    std::fprintf(stderr, "worker: connecting to %s:%u\n",
                 net.host.c_str(), net.port);
    return net::runNetWorker(workspace.engine(), workspace.structures(),
                             net);
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] { return runTool(argc, argv); });
}
