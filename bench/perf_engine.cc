/**
 * @file
 * google-benchmark microbenchmarks for the analysis engine itself:
 * cycle-simulation throughput on the full core, single-cycle
 * timing-aware simulation (with and without waveforms), per-wire cone
 * re-simulation, STA statically-reachable queries, and
 * snapshot/restore — the primitives
 * whose costs the two-step method (§V-B/V-C) is designed around — plus
 * the end-to-end GroupACE sweep comparison between the scalar and the
 * bit-parallel continuation paths (docs/PERFORMANCE.md).
 *
 * When the DAVF_BENCH_JSON environment variable names a file and both
 * BM_GroupAceAluSweep variants ran (e.g.
 * `--benchmark_filter=GroupAceAluSweep`), the measured speedup and the
 * sweep's davf-report/v1 rows are written there as one JSON object —
 * the BENCH_groupace.json artifact tools/ci_check.sh tracks. The two
 * sweeps must serialize to identical bytes; a mismatch fails the run.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "isa/assembler.hh"
#include "isa/benchmarks.hh"
#include "soc/ibex_mini.hh"
#include "soc/soc_workload.hh"
#include "bench/common.hh"
#include "core/report.hh"
#include "core/vulnerability.hh"
#include "util/atomic_file.hh"

using namespace davf;

namespace {

/** Shared fixture: the core running libstrstr. */
struct Rig
{
    IbexMini soc;
    DelayModel delays;
    Sta sta;
    TimedSimulator tsim;

    Rig()
        : soc({}, assemble(beebsBenchmark("libstrstr").source)),
          delays(soc.netlist(), CellLibrary::defaultLibrary()),
          sta(delays), tsim(delays)
    {}

    static Rig &
    instance()
    {
        static Rig rig;
        return rig;
    }
};

void
BM_CycleSimStep(benchmark::State &state)
{
    Rig &rig = Rig::instance();
    CycleSimulator sim(rig.soc.netlist());
    for (auto _ : state) {
        sim.step();
        if (sim.cycle() > 1200)
            sim.reset();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(
                                rig.soc.netlist().numCells()));
}
BENCHMARK(BM_CycleSimStep);

void
BM_TimedSimFullCycle(benchmark::State &state)
{
    Rig &rig = Rig::instance();
    CycleSimulator sim(rig.soc.netlist());
    for (int i = 0; i < 500; ++i)
        sim.step();
    const auto pre = sim.netValues_();
    sim.step();
    const auto post = sim.netValues_();
    const double period = rig.sta.maxPath();
    CycleWaveforms wf;
    for (auto _ : state)
        rig.tsim.simulateCycle(pre, post, period, wf);
}
BENCHMARK(BM_TimedSimFullCycle);

void
BM_TimedSimArrivalOnly(benchmark::State &state)
{
    Rig &rig = Rig::instance();
    CycleSimulator sim(rig.soc.netlist());
    for (int i = 0; i < 500; ++i)
        sim.step();
    const auto pre = sim.netValues_();
    sim.step();
    const auto post = sim.netValues_();
    for (auto _ : state)
        benchmark::DoNotOptimize(rig.tsim.maxEndpointArrival(pre, post));
}
BENCHMARK(BM_TimedSimArrivalOnly);

void
BM_ConeResim(benchmark::State &state)
{
    Rig &rig = Rig::instance();
    CycleSimulator sim(rig.soc.netlist());
    for (int i = 0; i < 500; ++i)
        sim.step();
    const auto pre = sim.netValues_();
    sim.step();
    const auto post = sim.netValues_();
    const double period = rig.sta.maxPath();
    CycleWaveforms wf;
    rig.tsim.simulateCycle(pre, post, period, wf);

    const auto &wires = rig.soc.structures().find("ALU")->wires;
    std::vector<LatchedPin> latched;
    size_t index = 0;
    for (auto _ : state) {
        rig.tsim.simulateCone(wf, wires[index % wires.size()],
                              0.5 * period, period, latched);
        ++index;
    }
}
BENCHMARK(BM_ConeResim);

void
BM_StaticallyReachable(benchmark::State &state)
{
    Rig &rig = Rig::instance();
    const auto &wires = rig.soc.structures().find("ALU")->wires;
    const double period = rig.sta.maxPath();
    std::vector<StateElemId> reachable;
    size_t index = 0;
    for (auto _ : state) {
        rig.sta.staticallyReachable(wires[index % wires.size()],
                                    0.5 * period, period, reachable);
        ++index;
    }
}
BENCHMARK(BM_StaticallyReachable);

void
BM_SnapshotRestore(benchmark::State &state)
{
    Rig &rig = Rig::instance();
    CycleSimulator sim(rig.soc.netlist());
    for (int i = 0; i < 100; ++i)
        sim.step();
    const auto snap = sim.snapshot();
    for (auto _ : state) {
        sim.restore(snap);
        sim.step();
    }
}
BENCHMARK(BM_SnapshotRestore);

void
BM_SoCBuild(benchmark::State &state)
{
    const auto image = assemble(beebsBenchmark("libstrstr").source);
    for (auto _ : state) {
        IbexMini soc({}, image);
        benchmark::DoNotOptimize(soc.netlist().numCells());
    }
}
BENCHMARK(BM_SoCBuild);

/** Fixture for the end-to-end sweep: core + engine, built once. */
struct EngineRig
{
    IbexMini soc;
    SocWorkload workload;
    VulnerabilityEngine engine;

    EngineRig()
        : soc({}, assemble(beebsBenchmark("popcount").source)),
          workload(soc),
          engine(soc.netlist(), CellLibrary::defaultLibrary(), workload)
    {}

    static EngineRig &
    instance()
    {
        static EngineRig rig;
        return rig;
    }
};

/** Best time and report bytes of each sweep flavor ([0]=scalar). */
struct SweepCapture
{
    double seconds = 0.0;
    std::string json;
};
SweepCapture g_sweep[2];

/**
 * The paper's dominant cost, end to end: a full ALU DelayAVF sweep over
 * the case study's nine SDF durations on popcount, with the GroupACE
 * continuations on the scalar path (Arg 0) or batched onto the 64-lane
 * vector path (Arg 1). Both must produce byte-identical reports; the
 * ratio of their times is the headline speedup in BENCH_groupace.json.
 */
void
BM_GroupAceAluSweep(benchmark::State &state)
{
    const bool vectorize = state.range(0) != 0;
    EngineRig &rig = EngineRig::instance();
    const Structure *alu = rig.soc.structures().find("ALU");
    const SamplingConfig config = bench::BenchLab::sampling();
    rig.engine.setVectorMode(vectorize);

    for (auto _ : state) {
        std::vector<ReportRow> rows;
        const auto start = std::chrono::steady_clock::now();
        for (double d : bench::kDelayFractions) {
            ReportRow row;
            row.benchmark = "popcount";
            row.structure = "ALU";
            row.delayFraction = d;
            row.davf = rig.engine.delayAvf(*alu, d, config);
            rows.push_back(std::move(row));
        }
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        SweepCapture &capture = g_sweep[vectorize ? 1 : 0];
        if (capture.seconds == 0.0 || seconds < capture.seconds)
            capture.seconds = seconds;
        capture.json = reportJson(rows);
    }

    state.counters["delays"] =
        static_cast<double>(bench::kDelayFractions.size());
    if (g_sweep[0].seconds > 0.0 && g_sweep[1].seconds > 0.0)
        state.counters["speedup"] =
            g_sweep[0].seconds / g_sweep[1].seconds;
}
BENCHMARK(BM_GroupAceAluSweep)
    ->Arg(1)
    ->Arg(0)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

/** Best time and report bytes of each tsim flavor ([0]=scalar). */
SweepCapture g_tsim[2];

/**
 * The Step-1 cost, end to end: the same nine-duration ALU DelayAVF
 * sweep on popcount, with faulted-cone re-simulation either scalar and
 * sweep-blind (Arg 0) or batched onto the lane-parallel timed
 * simulator with cross-delay reuse engaged (Arg 1). The GroupACE
 * continuations stay on the vector path in both flavors so the ratio
 * isolates the timing-aware step. Both must produce byte-identical
 * reports; the ratio of their times is the headline speedup in
 * BENCH_tsim.json.
 */
void
BM_TsimAluSweep(benchmark::State &state)
{
    const bool vector_tsim = state.range(0) != 0;
    EngineRig &rig = EngineRig::instance();
    const Structure *alu = rig.soc.structures().find("ALU");
    const SamplingConfig config = bench::BenchLab::sampling();
    rig.engine.setVectorMode(true);
    rig.engine.setTsimVectorMode(vector_tsim, vector_tsim ? 64 : 1);
    const std::vector<double> fractions(bench::kDelayFractions.begin(),
                                        bench::kDelayFractions.end());

    for (auto _ : state) {
        std::vector<ReportRow> rows;
        const auto start = std::chrono::steady_clock::now();
        if (vector_tsim)
            rig.engine.beginDelaySweep(fractions);
        for (double d : fractions) {
            ReportRow row;
            row.benchmark = "popcount";
            row.structure = "ALU";
            row.delayFraction = d;
            row.davf = rig.engine.delayAvf(*alu, d, config);
            rows.push_back(std::move(row));
        }
        if (vector_tsim)
            rig.engine.endDelaySweep();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        SweepCapture &capture = g_tsim[vector_tsim ? 1 : 0];
        if (capture.seconds == 0.0 || seconds < capture.seconds)
            capture.seconds = seconds;
        capture.json = reportJson(rows);
    }

    rig.engine.setTsimVectorMode(true, 64);
    state.counters["delays"] = static_cast<double>(fractions.size());
    if (g_tsim[0].seconds > 0.0 && g_tsim[1].seconds > 0.0)
        state.counters["speedup"] =
            g_tsim[0].seconds / g_tsim[1].seconds;
}
BENCHMARK(BM_TsimAluSweep)
    ->Arg(1)
    ->Arg(0)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

/**
 * Write the DAVF_BENCH_JSON artifact once both sweep flavors ran.
 * Returns false (failing the binary) if their reports differ by even
 * one byte — the vector path is only legal while bit-identical.
 */
bool
writeGroupAceArtifact()
{
    if (g_sweep[0].json.empty() || g_sweep[1].json.empty())
        return true; // Sweeps filtered out: nothing to record.
    const bool identical = g_sweep[0].json == g_sweep[1].json;
    if (!identical) {
        std::fprintf(stderr,
                     "GroupACE sweep: vector report differs from "
                     "scalar report (bit-identity violated)\n");
    }
    const double speedup = g_sweep[1].seconds > 0.0
        ? g_sweep[0].seconds / g_sweep[1].seconds
        : 0.0;
    std::fprintf(stderr,
                 "GroupACE ALU sweep: scalar %.2fs, vector %.2fs, "
                 "speedup %.2fx, reports %s\n",
                 g_sweep[0].seconds, g_sweep[1].seconds, speedup,
                 identical ? "bit-identical" : "DIFFER");

    const char *path = std::getenv("DAVF_BENCH_JSON");
    if (path != nullptr && *path != '\0') {
        char head[512];
        std::snprintf(head, sizeof(head),
                      "{\"schema\":\"davf-bench-groupace/v1\","
                      "\"benchmark\":\"popcount\","
                      "\"structure\":\"ALU\","
                      "\"delays\":%zu,"
                      "\"seconds_scalar\":%.3f,"
                      "\"seconds_vector\":%.3f,"
                      "\"speedup\":%.3f,"
                      "\"bit_identical\":%s,"
                      "\"report\":",
                      bench::kDelayFractions.size(), g_sweep[0].seconds,
                      g_sweep[1].seconds, speedup,
                      identical ? "true" : "false");
        try {
            writeFileAtomic(path,
                            std::string(head) + g_sweep[1].json + "}\n");
        } catch (const DavfError &error) {
            std::fprintf(stderr, "DAVF_BENCH_JSON write failed: %s\n",
                         error.what());
            return false;
        }
    }
    return identical;
}

/**
 * Write the DAVF_BENCH_TSIM_JSON artifact once both tsim sweep flavors
 * ran. Returns false (failing the binary) if their reports differ by
 * even one byte — lane batching and cross-delay reuse are only legal
 * while bit-identical.
 */
bool
writeTsimArtifact()
{
    if (g_tsim[0].json.empty() || g_tsim[1].json.empty())
        return true; // Sweeps filtered out: nothing to record.
    const bool identical = g_tsim[0].json == g_tsim[1].json;
    if (!identical) {
        std::fprintf(stderr,
                     "tsim sweep: lane-parallel report differs from "
                     "scalar report (bit-identity violated)\n");
    }
    const double speedup = g_tsim[1].seconds > 0.0
        ? g_tsim[0].seconds / g_tsim[1].seconds
        : 0.0;
    std::fprintf(stderr,
                 "tsim ALU sweep: scalar %.2fs, lane-parallel %.2fs, "
                 "speedup %.2fx, reports %s\n",
                 g_tsim[0].seconds, g_tsim[1].seconds, speedup,
                 identical ? "bit-identical" : "DIFFER");

    const char *path = std::getenv("DAVF_BENCH_TSIM_JSON");
    if (path != nullptr && *path != '\0') {
        char head[512];
        std::snprintf(head, sizeof(head),
                      "{\"schema\":\"davf-bench-tsim/v1\","
                      "\"benchmark\":\"popcount\","
                      "\"structure\":\"ALU\","
                      "\"delays\":%zu,"
                      "\"seconds_scalar\":%.3f,"
                      "\"seconds_vector\":%.3f,"
                      "\"speedup\":%.3f,"
                      "\"bit_identical\":%s,"
                      "\"report\":",
                      bench::kDelayFractions.size(), g_tsim[0].seconds,
                      g_tsim[1].seconds, speedup,
                      identical ? "true" : "false");
        try {
            writeFileAtomic(path,
                            std::string(head) + g_tsim[1].json + "}\n");
        } catch (const DavfError &error) {
            std::fprintf(stderr,
                         "DAVF_BENCH_TSIM_JSON write failed: %s\n",
                         error.what());
            return false;
        }
    }
    return identical;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    const bool groupace_ok = writeGroupAceArtifact();
    const bool tsim_ok = writeTsimArtifact();
    return (groupace_ok && tsim_ok) ? 0 : 1;
}
