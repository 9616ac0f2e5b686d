/**
 * @file
 * The remote campaign worker: the shard link's serve loop
 * (campaign/shard_link.hh serveShards) on a TCP connection to a
 * coordinator.
 *
 * A worker connects (with retries and exponential backoff, so it can
 * be started before its coordinator), introduces itself with the
 * versioned hello carrying its node name and workspace fingerprint,
 * settles its clock period from the welcome (net/frame.hh), and then
 * serves "shard <spec>" requests exactly like a pipe worker:
 * one shard at a time, sampling.threads forced to 1, "hb" heartbeats
 * while computing, replies in the journal token grammar so results
 * aggregate bit-identically on the coordinator.
 *
 * A clean "quit" ends the worker with exit 0 — after its last reply
 * has been written, so a quit racing an in-flight result never loses
 * the result (the coordinator drains before closing; see
 * docs/DISTRIBUTED.md). A vanished coordinator ends it with exit 1.
 */

#ifndef DAVF_NET_WORKER_HH
#define DAVF_NET_WORKER_HH

#include <cstdint>
#include <string>

#include "core/vulnerability.hh"
#include "netlist/structure.hh"

namespace davf::net {

/** How a worker finds and introduces itself to its coordinator. */
struct NetWorkerOptions
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;

    /** Self-chosen node name (shown in coordinator logs/metrics and
     *  matched by DAVF_TEST_NETFAULT); default node-<pid>. */
    std::string nodeName;

    /** Workspace build fingerprint sent in the hello; the coordinator
     *  rejects a mismatch instead of mixing results. */
    std::string fingerprint;

    /** Connect attempts beyond the first, with exponential backoff. */
    unsigned connectRetries = 30;

    /** Base of the connect backoff. */
    double backoffBaseMs = 200.0;

    /** Per-attempt connect timeout. */
    double connectTimeoutMs = 5000.0;
};

/**
 * Connect, handshake, and serve shards until quit (exit 0), a lost
 * coordinator (exit 1), or a rejected handshake (exit 2). Returns the
 * process exit code. An @p engine whose period is still unset (built
 * with EngineOptions::measurePeriod false) adopts the welcome's period
 * token, or measures its own when the welcome is bare.
 */
int runNetWorker(VulnerabilityEngine &engine,
                 const StructureRegistry &registry,
                 const NetWorkerOptions &options);

} // namespace davf::net

#endif // DAVF_NET_WORKER_HH
