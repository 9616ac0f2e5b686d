/**
 * @file
 * Client for the davf_serve query service (see docs/SERVICE.md).
 *
 * Sends one query (or one stats request) over the server's Unix-domain
 * socket and prints the reply body — a single line of report JSON that
 * is byte-identical to what `davf_run --json` prints for the same
 * query when the server computes (or has cached) the same workspace.
 *
 * Usage:
 *   davf_client --socket PATH [options]
 *     --socket PATH        server socket (required)
 *     --stats              request server statistics instead of a query
 *                          (pretty-printed; --raw keeps one line)
 *     --raw                print the reply body exactly as received
 *     --benchmark ... --max-failure-rate X
 *                          the query: davf_run's workspace and query
 *                          flags with its defaults (service/cli.hh);
 *                          --attribution adds an "attribution" array
 *                          to the reply's davf rows (docs/ANALYSIS.md)
 *     --connect-retries N  extra connect attempts with exponential
 *                          backoff (default 0) — rides out a server
 *                          that is still building its workspace
 *     --backoff-ms X       base of the connect backoff (default 200)
 *     --connect-timeout-ms X  overall budget for establishing the
 *                          connection across all attempts, 0 = none
 *                          (default 0)
 *
 * Exit status: 0 on an ok reply, 1 on a server-reported error. The
 * round-trip wall time is printed to stderr.
 */

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "service/cli.hh"
#include "service/protocol.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/subprocess.hh"

using namespace davf;
using namespace davf::service;

namespace {

struct Options
{
    std::string socket_path;
    bool stats = false;
    bool raw = false;
    QuerySpec query = defaultQuery();
    unsigned connect_retries = 0;
    double backoff_ms = 200.0;
    double connect_timeout_ms = 0.0;
};

[[noreturn]] void
usageError(const char *argv0, const std::string &detail)
{
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--stats] [--raw] "
                 "[--benchmark N] [--ecc]\n"
                 "          [--sta-period] [--structure N] "
                 "[--delays LO:HI:STEP] [--savf]\n"
                 "          [--attribution]\n"
                 "          [--cycles N] [--wires N] [--flops N] "
                 "[--seed N]\n"
                 "          [--timeout-ms X] [--max-failure-rate X]\n"
                 "          [--connect-retries N] [--backoff-ms X] "
                 "[--connect-timeout-ms X]\n",
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
        // The query flags davf_run takes, with its defaults, so a query
        // names the exact cells a CLI sweep would evaluate.
        if (parseQueryFlag(argc, argv, i, opts.query))
            continue;
        const std::string arg = argv[i];
        if (arg == "--socket") {
            opts.socket_path = need(i);
        } else if (arg == "--stats") {
            opts.stats = true;
        } else if (arg == "--raw") {
            opts.raw = true;
        } else if (arg == "--connect-retries") {
            opts.connect_retries =
                static_cast<unsigned>(parseU64Strict(need(i), arg));
        } else if (arg == "--backoff-ms") {
            opts.backoff_ms = parseDoubleStrict(need(i), arg);
            if (opts.backoff_ms < 0.0)
                usageError(argv[0], "--backoff-ms must be >= 0");
        } else if (arg == "--connect-timeout-ms") {
            opts.connect_timeout_ms = parseDoubleStrict(need(i), arg);
            if (opts.connect_timeout_ms < 0.0)
                usageError(argv[0], "--connect-timeout-ms must be >= 0");
        } else {
            usageError(argv[0], "unknown flag '" + arg + "'");
        }
    }
    if (opts.socket_path.empty())
        usageError(argv[0], "--socket is required");
    return opts;
} catch (const DavfError &error) {
    // The shared parsers name the flag and its bad value.
    usageError(argv[0], error.what());
}

/**
 * connectUnix with up to @p retries extra attempts, backing off
 * exponentially, under one overall deadline. A client launched while
 * the server is still building its workspace (the socket file does not
 * exist yet) waits for it instead of failing on the first attempt.
 */
int
connectWithRetry(const Options &opts)
{
    const auto start = std::chrono::steady_clock::now();
    auto elapsed_ms = [&] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    for (unsigned attempt = 0;; ++attempt) {
        try {
            return connectUnix(opts.socket_path);
        } catch (const DavfError &error) {
            if (attempt >= opts.connect_retries)
                throw;
            double delay_ms = opts.backoff_ms
                * static_cast<double>(1u << std::min(attempt, 10u));
            if (opts.connect_timeout_ms > 0.0) {
                const double remaining =
                    opts.connect_timeout_ms - elapsed_ms();
                if (remaining <= 0.0) {
                    davf_throw(ErrorKind::Timeout,
                               "could not connect to '",
                               opts.socket_path, "' within ",
                               opts.connect_timeout_ms,
                               " ms: ", error.what());
                }
                delay_ms = std::min(delay_ms, remaining);
            }
            std::fprintf(stderr,
                         "connect attempt %u failed (%s); retrying in "
                         "%.0f ms\n",
                         attempt + 1, error.what(), delay_ms);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay_ms));
        }
    }
}

int
runTool(int argc, char **argv)
{
    const Options opts = parse(argc, argv);

    // A server that dies mid-exchange must surface as EPIPE on our
    // write, not a process-killing SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    const int fd = connectWithRetry(opts);
    const auto start = std::chrono::steady_clock::now();
    writeFrameFd(fd, opts.stats ? std::string("stats")
                                : makeQueryFrame(opts.query));

    std::string payload;
    if (!readFrameFd(fd, payload)) {
        ::close(fd);
        davf_throw(ErrorKind::Io,
                   "server closed the connection before replying");
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    ::close(fd);

    Result<ServerReply> reply = parseServerReply(payload);
    if (!reply)
        throw reply.error();
    std::fprintf(stderr, "reply in %.1f ms\n", elapsed_ms);
    if (!reply.value().ok) {
        std::fprintf(stderr, "server error [%s]: %s\n",
                     reply.value().errorKind.c_str(),
                     reply.value().message.c_str());
        return 1;
    }
    if (opts.stats && !opts.raw) {
        // Stats replies are for human eyes by default; --raw restores
        // the single-line reply for scripts. Query replies are never
        // reformatted — their byte-identity to `davf_run --json` is a
        // service guarantee.
        std::printf("%s\n", jsonPretty(reply.value().body).c_str());
    } else {
        std::printf("%s\n", reply.value().body.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] { return runTool(argc, argv); });
}
