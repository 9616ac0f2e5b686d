/**
 * @file
 * google-benchmark microbenchmarks for the analysis engine itself:
 * cycle-simulation throughput on the full core, single-cycle
 * timing-aware simulation (with and without waveforms), per-wire cone
 * re-simulation, STA statically-reachable queries, and
 * snapshot/restore — the primitives whose costs the two-step method
 * (§V-B/V-C) is designed around. End-to-end sweep timings live in
 * bench/e2e.
 */

#include <benchmark/benchmark.h>

#include "isa/assembler.hh"
#include "isa/benchmarks.hh"
#include "soc/ibex_mini.hh"
#include "timing/sta.hh"
#include "tsim/timed_sim.hh"

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

} // namespace

BENCHMARK_MAIN();
