/**
 * @file
 * The traced pass: the sweep and serve workloads replayed in-process,
 * with a harness span around every public call into a layer (isa, soc,
 * core, timing, tsim, sim, campaign, net, service, store). The spans
 * live in the harness only — nothing inside the program is
 * instrumented — so each number is the cost of a call as its caller
 * sees it. Every replayed result is checked against the tools' bytes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "campaign/campaign.hh"
#include "core/report.hh"
#include "core/shard.hh"
#include "harness.hh"
#include "isa/assembler.hh"
#include "isa/benchmarks.hh"
#include "net/coordinator.hh"
#include "net/frame.hh"
#include "netlist/cell.hh"
#include "obs/metrics.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "service/workspace.hh"
#include "soc/ibex_mini.hh"
#include "soc/soc_workload.hh"
#include "util/rng.hh"

namespace davf::e2e {

namespace {

/**
 * Fresh repetitions of the set-up and sweep a davf_run
 * invocation pays, and of the untraced davf_run they are compared
 * with: each reported time is the median.
 */
constexpr int kSweepReps = 3;

/** How far the in-process replay may drift from the tool's wall time. */
constexpr double kMaxTraceOverhead = 0.15;

/**
 * Sampling seeds 1 .. kProbeSamples (the sweep pool and a few more)
 * feed the per-(d, cycle) probes of core and net: 6 x 9 delays x 4
 * cycles = 216 pairs, enough for a p95 with ten samples beyond it.
 */
constexpr uint64_t kProbeSamples = 6;

/** Share of the sweep's (wire, cycle, d) space the step-1 probe hits. */
constexpr size_t kStep1Share = 32;

/** Distinct error sets whose GroupACE verdict is timed, and the
 *  injection cycles searched for them (the context cache holds 16). */
constexpr size_t kVerdictSets = 200;
constexpr unsigned kVerdictCycles = 16;

/** Fresh-store passes of the serve mix: 20 misses each. */
constexpr int kServePasses = 10;

class Tracer
{
  public:
    Tracer(SpanRecorder &the_spans, TracedResult &the_result)
        : spans(the_spans), result(the_result)
    {}

    /** Run @p fn inside a span named @p name; its seconds. */
    template <typename Fn>
    double
    time(const char *name, Fn &&fn)
    {
        ++result.attempted;
        SpanRecorder::Scope scope(spans, name);
        fn();
        return scope.elapsedS();
    }

    void
    value(const std::string &name, double value, const char *unit,
          size_t n)
    {
        result.metrics.push_back({name, value, unit, n});
    }

    /**
     * A timing distribution: its median under @p name alone when
     * @p tail is 50, else `.p50` plus `.p<tail>`, which needs ten
     * samples beyond it (a pass with fewer is marked incorrect).
     */
    void
    timings(const std::string &name, const std::vector<double> &samples,
            const char *unit, unsigned tail = 50)
    {
        if (samples.empty()) {
            result.problem("no samples for " + name);
            return;
        }
        const size_t n = samples.size();
        if (tail == 50) {
            value(name, percentile(samples, 50), unit, n);
            return;
        }
        if (tailPercentile(n) < tail) {
            result.problem(name + ": " + std::to_string(n)
                           + " samples cannot support p"
                           + std::to_string(tail));
        }
        value(name + ".p50", percentile(samples, 50), unit, n);
        value(name + ".p" + std::to_string(tail),
              percentile(samples, tail), unit, n);
    }

  private:
    SpanRecorder &spans;
    TracedResult &result;
};

/** The sweep's report as davf_run --json prints it. */
std::string
sweepReport(const std::vector<ReportRow> &rows)
{
    return reportJson(rows) + "\n";
}

std::string
sweepReport(const CampaignSummary &summary)
{
    std::vector<ReportRow> rows;
    for (const CampaignCellResult &cell : summary.cells) {
        if (cell.key.kind != "davf" || cell.failed)
            continue;
        ReportRow row;
        row.benchmark = kSweepBenchmark;
        row.structure = kSweepStructure;
        row.delayFraction = cell.delay;
        row.davf = cell.davf;
        rows.push_back(std::move(row));
    }
    return sweepReport(rows);
}

uint64_t
counterDelta(const obs::MetricsSnapshot &before,
             const obs::MetricsSnapshot &after, const std::string &name)
{
    const auto get = [&](const obs::MetricsSnapshot &snap) -> uint64_t {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    return get(after) - get(before);
}

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Reap @p nodes, allowing each @p grace_s to exit on its own. */
void
reapNodes(std::vector<std::unique_ptr<Child>> &nodes, double grace_s,
          TracedResult &result)
{
    for (const auto &node : nodes) {
        const Clock::time_point start = Clock::now();
        while (!node->tryReap() && secondsSince(start) < grace_s)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const ExitStatus exit = node->terminate(1.0);
        if (!succeeded(exit))
            result.problem("davf_worker " + exit.describe());
    }
}

/** What the sweep replay hands the comparison with the tool. */
struct SweepReplay
{
    uint64_t sample = 0;    ///< Sampling seed of the replayed sweep.
    std::string report;     ///< davf_run --json bytes of the campaign.
    double setupRunS = 0.0; ///< Median assemble + build + golden + run.
};

SweepReplay
traceSweep(const RunConfig &cfg, Tracer &tracer, TracedResult &result)
{
    const BenchmarkProgram &program = beebsBenchmark(kSweepBenchmark);
    const std::vector<double> delays = kSweepDelays.fractions();
    // The sample the untraced workloads visit first for this seed.
    const uint64_t sample =
        kSweepSamples[poolOrder(cfg.seed, std::size(kSweepSamples))[0]];
    CampaignOptions campaign_options;
    campaign_options.benchmark = kSweepBenchmark;
    campaign_options.structures = {kSweepStructure};
    campaign_options.delays = delays;
    campaign_options.sampling.maxInjectionCycles = kSweepCycles;
    campaign_options.sampling.maxWires = kSweepWires;
    campaign_options.sampling.maxFlops = 96;
    campaign_options.sampling.seed = sample;
    campaign_options.sampling.threads = kThreads;
    // The service Workspace's engine options: the observed-max clock.
    EngineOptions options;
    options.periodMode = EngineOptions::PeriodMode::ObservedMaxPlusMargin;

    // --- isa, soc, core: what every davf_run pays, afresh each time.
    // All set-ups run before any campaign: in one process, golden
    // capture after a 4-thread campaign ran up to 20% slower than in a
    // fresh davf_run.
    struct Rig
    {
        std::unique_ptr<IbexMini> soc;
        std::unique_ptr<SocWorkload> workload;
        std::unique_ptr<VulnerabilityEngine> engine;
    };
    std::vector<Rig> rigs(kSweepReps);
    std::vector<double> assemble_ms;
    std::vector<double> build_ms;
    std::vector<double> golden_s;
    for (Rig &rig : rigs) {
        std::vector<uint32_t> image;
        assemble_ms.push_back(1e3 * tracer.time("isa.assemble", [&] {
            image = assemble(program.source);
        }));
        build_ms.push_back(1e3 * tracer.time("soc.build", [&] {
            rig.soc = std::make_unique<IbexMini>(IbexMiniConfig{}, image);
        }));
        rig.workload = std::make_unique<SocWorkload>(*rig.soc);
        golden_s.push_back(tracer.time("core.golden", [&] {
            rig.engine = std::make_unique<VulnerabilityEngine>(
                rig.soc->netlist(), CellLibrary::defaultLibrary(),
                *rig.workload, options);
        }));
        if (rig.engine->goldenOutput() != program.expectedOutput)
            result.problem("golden run produced the wrong output");
    }

    // --- campaign: the sweep on kThreads threads, once per fresh
    // engine, as davf_run runs it (a reused engine runs it faster).
    std::vector<double> run_s;
    std::string report;
    for (size_t rep = 0; rep < rigs.size(); ++rep) {
        const Rig &rig = rigs[rep];
        CampaignSummary summary;
        run_s.push_back(tracer.time("campaign.run", [&] {
            Campaign campaign(*rig.engine, rig.soc->structures(),
                              campaign_options);
            summary = campaign.run();
        }));
        const std::string rep_report = sweepReport(summary);
        if (rep > 0 && rep_report != report)
            result.problem("repeated in-process sweeps differ");
        report = rep_report;
    }
    result.checkDigest(sweepDigestName(sample), sha256Hex(report),
                       cfg.pinning);
    tracer.timings("isa.assemble_ms", assemble_ms, "ms");
    tracer.timings("soc.build_ms", build_ms, "ms");
    tracer.timings("core.golden_s", golden_s, "s");
    tracer.timings("campaign.run_s", run_s, "s");
    const double median_run_s = percentile(run_s, 50);
    // The last rig serves every call below; the others go.
    Rig rig = std::move(rigs.back());
    rigs.clear();
    IbexMini *soc = rig.soc.get();
    VulnerabilityEngine *engine = rig.engine.get();
    const Structure &alu = *soc->structures().find(kSweepStructure);

    // The engine's counters, from a second run with collection on:
    // collection adds bookkeeping, so the timed run above leaves it off.
    obs::MetricsRegistry &registry = obs::MetricsRegistry::instance();
    obs::MetricsRegistry::setEnabled(true);
    const obs::MetricsSnapshot before = registry.snapshot();
    tracer.time("campaign.run_counted", [&] {
        Campaign campaign(*engine, soc->structures(), campaign_options);
        if (sweepReport(campaign.run()) != report)
            result.problem("the counted campaign differs from the timed one");
    });
    const obs::MetricsSnapshot after = registry.snapshot();
    obs::MetricsRegistry::setEnabled(false);
    const auto delta = [&](const std::string &name) {
        return counterDelta(before, after, name);
    };
    tracer.value("core.injections",
                 static_cast<double>(delta("engine.injections")), "count", 1);
    tracer.value("sim.group_sims",
                 static_cast<double>(delta("engine.group_sims")), "count", 1);
    tracer.value("sim.lane_occupancy",
                 ratio(delta("engine.vector.lanes_used"),
                       delta("engine.vector.lane_capacity")),
                 "ratio", 1);
    tracer.value("tsim.lane_occupancy",
                 ratio(delta("engine.tsim.lanes_used"),
                       delta("engine.tsim.lane_capacity")),
                 "ratio", 1);

    // --- core: each (d, cycle) shard on one thread, inside a sweep as
    // the campaign runs them, for every probe sample.
    SamplingConfig config = campaign_options.sampling;
    config.threads = 1;
    config.maxFailureRate = campaign_options.maxFailureRate;
    const std::vector<uint64_t> cycles = engine->injectionCycles(config);
    // The replayed sample's outcomes: delay -> one per injection cycle.
    std::map<double, std::vector<InjectionCycleOutcome>> outcomes;
    std::vector<double> cycle_ms;
    double sample_cycles_s = 0.0; // Summed over the replayed sample.
    for (uint64_t probe = 1; probe <= kProbeSamples; ++probe) {
        SamplingConfig probe_config = config;
        probe_config.seed = probe;
        engine->beginDelaySweep(delays);
        for (double d : delays) {
            for (uint64_t cycle : cycles) {
                InjectionCycleOutcome outcome;
                const double s = tracer.time("core.cycle", [&] {
                    outcome =
                        engine->delayAvfCycle(alu, d, cycle, probe_config);
                });
                cycle_ms.push_back(1e3 * s);
                if (probe == sample) {
                    sample_cycles_s += s;
                    outcomes[d].push_back(std::move(outcome));
                }
            }
        }
        engine->endDelaySweep();
    }
    tracer.timings("core.cycle_ms", cycle_ms, "ms", 95);
    tracer.value("core.cycles", static_cast<double>(cycle_ms.size()),
                 "count", cycle_ms.size());
    tracer.value("campaign.parallel_eff",
                 sample_cycles_s / (kThreads * median_run_s), "ratio", 1);

    // --- core: aggregation from completed outcomes, the path every
    // store hit takes. It must reproduce the campaign's rows.
    std::vector<double> aggregate_ms;
    std::vector<ReportRow> rows;
    for (double d : delays) {
        DelayAvfProgress progress;
        progress.completed = outcomes[d];
        ReportRow row;
        row.benchmark = kSweepBenchmark;
        row.structure = kSweepStructure;
        row.delayFraction = d;
        aggregate_ms.push_back(1e3 * tracer.time("core.aggregate", [&] {
            row.davf = engine->delayAvf(alu, d, config, &progress);
        }));
        rows.push_back(std::move(row));
    }
    if (sweepReport(rows) != report)
        result.problem("aggregated shard outcomes differ from the campaign");
    tracer.timings("core.aggregate_ms", aggregate_ms, "ms");

    // --- timing: the STA filter per sampled wire and delay.
    const std::vector<WireId> wires = engine->sampledWires(alu, config);
    const double period = engine->clockPeriod();
    std::vector<StateElemId> reachable;
    std::vector<double> sta_us;
    for (double d : delays) {
        for (WireId wire : wires) {
            sta_us.push_back(1e6 * tracer.time("timing.sta", [&] {
                engine->sta().staticallyReachable(wire, d * period, period,
                                                  reachable);
            }));
        }
    }
    tracer.timings("timing.sta_us", sta_us, "us", 99);

    // --- tsim: step 1 on a seeded share of the (wire, cycle, d) space,
    // visited cycle by cycle so the engine's golden context cache holds.
    const size_t space = delays.size() * cycles.size() * wires.size();
    std::vector<size_t> picks(space);
    for (size_t i = 0; i < space; ++i)
        picks[i] = i;
    Rng rng(cfg.seed ^ 0x5354455031ull);
    const size_t count = space / kStep1Share;
    for (size_t i = 0; i < count; ++i)
        std::swap(picks[i], picks[i + rng.below(space - i)]);
    picks.resize(count);
    std::sort(picks.begin(), picks.end());
    std::vector<double> step1_us;
    for (size_t pick : picks) {
        // Index order: cycle-major, then delay, then wire.
        const uint64_t cycle = cycles[pick / (delays.size() * wires.size())];
        const double d = delays[pick / wires.size() % delays.size()];
        const WireId wire = wires[pick % wires.size()];
        step1_us.push_back(1e6 * tracer.time("tsim.step1", [&] {
            engine->dynamicErrors(wire, cycle, d * period);
        }));
    }
    tracer.timings("tsim.step1_us", step1_us, "us", 95);

    // --- sim: GroupACE verdicts of distinct error sets, found at the
    // largest delay (where errors are most common) among all the ALU's
    // wires in kVerdictCycles evenly spaced cycles, in seeded order.
    SamplingConfig search_config = config;
    search_config.maxInjectionCycles = kVerdictCycles;
    const std::vector<uint64_t> search_cycles =
        engine->injectionCycles(search_config);
    std::set<std::pair<uint64_t, std::vector<CycleSimulator::Force>>> sets;
    std::vector<double> verdict_ms;
    const size_t candidates = search_cycles.size() * alu.wires.size();
    for (size_t index : poolOrder(cfg.seed, candidates)) {
        if (verdict_ms.size() >= kVerdictSets)
            break;
        const uint64_t cycle = search_cycles[index / alu.wires.size()];
        std::vector<CycleSimulator::Force> errors = engine->dynamicErrors(
            alu.wires[index % alu.wires.size()], cycle,
            delays.back() * period);
        if (errors.empty() || !sets.emplace(cycle, errors).second)
            continue;
        verdict_ms.push_back(1e3 * tracer.time("sim.verdict", [&] {
            engine->groupVerdict(errors, cycle);
        }));
    }
    tracer.timings("sim.verdict_ms", verdict_ms, "ms", 95);

    // --- campaign: the same sweep in supervised worker processes
    // re-executing davf_run, as --isolate process runs it.
    CampaignOptions process_options = campaign_options;
    process_options.isolate = IsolationMode::Process;
    process_options.supervisor.workerArgv = {cfg.toolsDir + "/davf_run"};
    for (std::string &arg : sweepQueryArgs(sample))
        process_options.supervisor.workerArgv.push_back(std::move(arg));
    process_options.supervisor.workerArgv.push_back("--worker-shard");
    process_options.supervisor.workers = kWorkers;
    CampaignSummary process_summary;
    const double cpu_before = childCpuSeconds();
    const double process_s = tracer.time("campaign.process_run", [&] {
        Campaign campaign(*engine, soc->structures(), process_options);
        process_summary = campaign.run();
    });
    const double worker_cpu_s = childCpuSeconds() - cpu_before;
    if (sweepReport(process_summary) != report)
        result.problem("process-mode campaign differs from thread mode");
    tracer.value("campaign.process_run_s", process_s, "s", 1);
    tracer.value("campaign.isolation_ratio", process_s / median_run_s,
                 "ratio", 1);
    tracer.value("campaign.worker_cpu_s", worker_cpu_s, "s", 1);

    // --- net: a loopback fleet of davf_worker nodes behind an
    // in-process coordinator, one single-cycle cell per (d, cycle) pair
    // of the core probe's samples on a quarter of their wires (216
    // cells of the full sample took 20 s), each checked against the
    // local outcome. The nodes are built from the same spec right here,
    // so the handshake's fingerprint check is left open.
    net::CoordinatorOptions net_options;
    net_options.seed = sample;
    net_options.localCycle = [&](const ShardSpec &spec) {
        return engine->delayAvfCycle(*soc->structures().find(spec.structure),
                                     spec.delayFraction, spec.cycle,
                                     spec.sampling, spec.wireBegin,
                                     spec.wireEnd, spec.quarantined);
    };
    net::ListenSocket listener = net::listenTcp("127.0.0.1", 0);
    const std::string address = "127.0.0.1:" + std::to_string(listener.port);
    std::vector<std::unique_ptr<Child>> nodes;
    {
        net::Coordinator coordinator(listener, std::move(net_options));
        const double ready_s = tracer.time("net.node_ready", [&] {
            for (unsigned k = 0; k < kWorkers; ++k) {
                const std::string node = "trace-node-" + std::to_string(k);
                nodes.push_back(std::make_unique<Child>());
                nodes.back()->spawn({cfg.toolsDir + "/davf_worker",
                                     "--connect", address, "--benchmark",
                                     kSweepBenchmark, "--node", node},
                                    node + ".log");
            }
            coordinator.waitForNodes(kWorkers, 60000.0);
        });
        if (coordinator.nodeCount() != kWorkers)
            result.problem("the loopback fleet did not assemble");
        tracer.value("net.node_ready_s", ready_s, "s", 1);

        std::vector<double> cell_s;
        for (uint64_t probe = 1; probe <= kProbeSamples; ++probe) {
            SamplingConfig probe_config = config;
            probe_config.seed = probe;
            probe_config.maxWires = kSweepWires / 4;
            for (double d : delays) {
                for (uint64_t cycle : cycles) {
                    const InjectionCycleOutcome expected =
                        engine->delayAvfCycle(alu, d, cycle, probe_config);
                    std::vector<InjectionCycleOutcome> got;
                    ShardDispatcher::CellResult cell;
                    cell_s.push_back(tracer.time("net.cell", [&] {
                        cell = coordinator.runDavfCell(
                            kSweepStructure, d, {cycle}, probe_config,
                            [&](const InjectionCycleOutcome &outcome) {
                                got.push_back(outcome);
                            });
                    }));
                    if (cell.failed || got.size() != 1
                        || got[0] != expected) {
                        result.problem(
                            "a net cell differs from the local shard");
                    }
                }
            }
        }
        tracer.timings("net.cell_s", cell_s, "s", 95);
        coordinator.shutdown();
    }
    reapNodes(nodes, 10.0, result);

    return {sample, report,
            percentile(assemble_ms, 50) * 1e-3
                + percentile(build_ms, 50) * 1e-3
                + percentile(golden_s, 50) + median_run_s};
}

void
traceServe(const RunConfig &cfg, Tracer &tracer, TracedResult &result)
{
    // --- service: the serve-mix queries, one at a time, as the server
    // starts of a run send them: each pass on a fresh indexed store
    // behind a 32-entry memory tier, so each pass has 20 misses.
    const std::vector<ServeSpec> pool = servePool();
    service::WorkspaceSpec spec;
    spec.benchmark = kServeBenchmark;
    std::unique_ptr<service::Workspace> workspace;
    tracer.time("service.workspace", [&] {
        workspace = std::make_unique<service::Workspace>(spec);
    });
    service::QueryScheduler::Options scheduler_options;
    scheduler_options.benchmark = kServeBenchmark;
    scheduler_options.threads = kThreads;
    std::unique_ptr<service::ResultStore> store;
    std::unique_ptr<service::QueryScheduler> scheduler;

    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    uint64_t shard_hits = 0;
    uint64_t shard_lookups = 0;
    std::map<size_t, std::string> bodies;
    for (int pass = 0; pass < kServePasses; ++pass) {
        scheduler.reset();
        store.reset();
        service::ResultStore::Options store_options;
        store_options.dir = "trace-store-" + std::to_string(pass);
        store_options.memCapacity = kServeMemCapacity;
        std::filesystem::remove_all(store_options.dir);
        store = std::make_unique<service::ResultStore>(store_options);
        scheduler = std::make_unique<service::QueryScheduler>(
            workspace->engine(), workspace->structures(),
            workspace->fingerprint(), *store, scheduler_options);
        for (const std::vector<size_t> &client : sessionMix(cfg.seed, pass)) {
            for (size_t rank : client) {
                Result<service::QueryScheduler::QueryReply> reply =
                    Result<service::QueryScheduler::QueryReply>::Err(
                        ErrorKind::Internal, "not run");
                const double ms = 1e3 * tracer.time("service.query", [&] {
                    reply = scheduler->run(pool[rank].query);
                });
                if (!reply) {
                    ++result.failed;
                    result.problem(std::string("query: ")
                                   + reply.error().what());
                    continue;
                }
                const auto &value = reply.value();
                (value.storeMisses == 0 ? hit_ms : miss_ms).push_back(ms);
                shard_hits += value.storeHits;
                shard_lookups += value.storeHits + value.storeMisses;
                const auto [it, fresh] =
                    bodies.emplace(rank, value.reportJson);
                if (!fresh && it->second != value.reportJson)
                    result.problem("a hit's reply differs from its miss");
            }
        }
    }
    tracer.timings("service.query_hit_ms", hit_ms, "ms", 95);
    tracer.timings("service.query_miss_ms", miss_ms, "ms", 95);
    tracer.value("store.hit_frac", ratio(shard_hits, shard_lookups), "ratio",
                 shard_lookups);
    result.checkDigest(kServeDigestName, repliesDigest(bodies), cfg.pinning);

    // --- store: every shard key of the pool, looked up twice in the
    // last pass's store, then written into a fresh indexed store.
    std::vector<std::string> keys;
    for (const ServeSpec &entry : pool) {
        ShardSpec shard;
        shard.structure = entry.query.structure;
        shard.sampling = entry.query.sampling;
        for (double d : entry.query.delays) {
            shard.delayFraction = d;
            for (uint64_t cycle :
                 workspace->engine().injectionCycles(entry.query.sampling)) {
                shard.cycle = cycle;
                keys.push_back(scheduler->shardKey(shard));
            }
        }
    }
    std::vector<double> lookup_us;
    std::vector<std::string> payloads;
    for (int pass = 0; pass < 2; ++pass) {
        for (const std::string &key : keys) {
            std::optional<std::string> payload;
            lookup_us.push_back(1e6 * tracer.time("store.lookup", [&] {
                payload = store->lookup(key);
            }));
            if (payload && pass == 0)
                payloads.push_back(std::move(*payload));
        }
    }
    tracer.timings("store.lookup_us", lookup_us, "us", 95);
    if (payloads.empty()) {
        result.problem("the store holds none of the pool's shards");
        return;
    }
    std::filesystem::remove_all("trace-store-write");
    service::ResultStore::Options write_options;
    write_options.dir = "trace-store-write";
    service::ResultStore fresh(write_options);
    std::vector<double> write_us;
    for (size_t i = 0; i < keys.size(); ++i) {
        write_us.push_back(1e6 * tracer.time("store.write", [&] {
            fresh.store(keys[i], payloads[i % payloads.size()]);
        }));
    }
    tracer.timings("store.write_us", write_us, "us", 95);
}

} // namespace

TracedResult
runTraced(const RunConfig &cfg, SpanRecorder &spans)
{
    TracedResult result;
    Tracer tracer(spans, result);
    try {
        SpanRecorder::Scope root(spans, "traced");
        const SweepReplay replay = traceSweep(cfg, tracer, result);
        traceServe(cfg, tracer, result);

        // The replay against the tool: untraced davf_run invocations of
        // the same query must print the campaign's bytes, in about the
        // time the traced set-up and campaign took.
        std::vector<std::string> argv = {cfg.toolsDir + "/davf_run"};
        for (std::string &arg : sweepQueryArgs(replay.sample))
            argv.push_back(std::move(arg));
        std::vector<double> wall_s;
        for (int rep = 0; rep < kSweepReps; ++rep) {
            const Clock::time_point start = Clock::now();
            Child run;
            run.spawn(argv);
            const std::string report =
                run.runToExit([](const std::string &) {}, nullptr);
            wall_s.push_back(secondsSince(start));
            if (!succeeded(run.exitStatus())) {
                result.problem("untraced davf_run "
                               + run.exitStatus().describe());
            } else if (report != replay.report) {
                result.problem("in-process sweep differs from davf_run --json");
            }
        }
        const double overhead =
            replay.setupRunS / percentile(wall_s, 50) - 1.0;
        tracer.value("trace.overhead_frac", overhead, "ratio", wall_s.size());
        // A warning, not a failure: both sides are host time on a
        // possibly noisy host.
        if (std::abs(overhead) > kMaxTraceOverhead) {
            std::fprintf(stderr,
                         "traced: warning: the in-process sweep takes %+.0f%% "
                         "of davf_run's wall time (expected within ±%.0f%%)\n",
                         100 * overhead, 100 * kMaxTraceOverhead);
        }
    } catch (const DavfError &error) {
        ++result.failed;
        result.problem(error.what());
    }
    return result;
}

} // namespace davf::e2e
