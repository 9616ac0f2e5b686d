/**
 * @file
 * The command-line grammar the front ends share.
 *
 * davf_run and davf_client name a query with the same flags and
 * defaults, davf_serve and davf_worker name their workspace with the
 * same three, and davf_run and davf_serve start their process workers
 * with the same hidden flags. One parser keeps a served reply
 * byte-identical to `davf_run --json` and a shard's store key the same
 * whichever tool derived it, and one builder turns a query into the
 * campaign that answers it, for davf_run and the query scheduler.
 *
 * Each parser consumes argv[i] (and its value) when the flag is its
 * own and says so, so a tool parses its own flags around them. Every
 * rejection throws DavfError{BadArgument} with the message the tool
 * prints after its usage text before exiting 2.
 */

#ifndef DAVF_SERVICE_CLI_HH
#define DAVF_SERVICE_CLI_HH

#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "service/protocol.hh"
#include "service/workspace.hh"

namespace davf::service {

/** The value of flag argv[i], advancing @p i to it. */
const char *flagValue(int argc, char *const *argv, int &i);

/** The workspace flags: --benchmark NAME (one that exists), --ecc,
 *  --sta-period. */
bool parseWorkspaceFlag(int argc, char *const *argv, int &i,
                        WorkspaceSpec &spec);

/**
 * The query a front end starts from: the default workspace, structure
 * ALU, delays 0.1:0.9:0.2, 8 injection cycles, 400 wires, 96 flops,
 * seed 1, no timeout, failure rate 0.05.
 */
QuerySpec defaultQuery();

/**
 * The workspace flags and the query flags: --structure NAME,
 * --delays LO:HI:STEP, --savf, --attribution, --cycles N, --wires N,
 * --flops N, --seed N, --timeout-ms X, --max-failure-rate X.
 */
bool parseQueryFlag(int argc, char *const *argv, int &i,
                    QuerySpec &query);

/**
 * The delays of a --delays value: 0 <= LO <= HI <= 1 and STEP > 0,
 * expanded as d = LO, LO + STEP, ... while d <= HI + 1e-9 (the running
 * sum, so every front end names the same doubles).
 */
std::vector<double> parseDelayRange(const std::string &text);

/**
 * The one-structure campaign that answers @p query: benchmark and ECC
 * label, structure, delays, sAVF switch, sampling, and failure rate.
 * Threads, paths, isolation, and the cache are the caller's.
 */
CampaignOptions queryCampaign(const QuerySpec &query);

/**
 * The hidden flags of a process campaign worker: --worker-shard serves
 * shards over stdin/stdout, and --worker-period HEX is the parent's
 * measured clock period as a `%a` hexfloat, adopted bit-exactly
 * instead of re-running the timed golden pass.
 */
struct WorkerFlags
{
    bool shard = false;
    double period = 0.0; ///< 0 when not given.

    bool parse(int argc, char *const *argv, int &i);

    /** --worker-period needs --worker-shard and no --sta-period. */
    void check(const WorkspaceSpec &spec) const;

    /** No timed golden pass when a period is handed over. */
    WorkspaceOptions workspaceOptions(unsigned threads) const;

    /**
     * Adopt the handed-over period; in worker mode, then serve shards
     * until the parent is done and return the exit code. std::nullopt
     * in the parent.
     */
    std::optional<int> serve(Workspace &workspace) const;

    /** The command line that starts a worker of @p workspace's parent:
     *  this executable with @p args, the workspace flags,
     *  --worker-shard, and the period unless the workspace clocks by
     *  STA. */
    static std::vector<std::string>
    commandLine(Workspace &workspace,
                const std::vector<std::string> &args = {});
};

} // namespace davf::service

#endif // DAVF_SERVICE_CLI_HH
