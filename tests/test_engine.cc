/**
 * @file
 * Tests for the vulnerability engine:
 *
 *  - the headline exactness claim: the two-step DelayACE computation
 *    (Eq. 4) equals brute-force full-circuit timed simulation;
 *  - DynamicReachable is a subset of the statically reachable set;
 *  - GroupACE verdict semantics (no-op forces, direct SDC, hangs);
 *  - sAVF ground truths on hand-built circuits;
 *  - ACE compounding through a real SEC-ECC register (the Table III /
 *    Fig. 10 mechanism): single-bit strikes are masked, double errors
 *    escape;
 *  - aggregate result consistency of delayAvf().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "src/builder/ecc.hh"
#include "src/campaign/checkpoint.hh"
#include "src/core/report.hh"
#include "src/core/vulnerability.hh"
#include "src/obs/metrics.hh"
#include "src/obs/trace.hh"
#include "src/soc/ibex_mini.hh"
#include "src/soc/soc_workload.hh"
#include "src/isa/assembler.hh"
#include "src/isa/benchmarks.hh"
#include "src/util/rng.hh"
#include "tests/helpers.hh"

namespace davf {
namespace {

class EngineRandom : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(EngineRandom, TwoStepMatchesBruteForce)
{
    const auto circuit = test::makeRandomCircuit(GetParam(), 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    const double period = engine.clockPeriod();

    Rng rng(GetParam() * 7919);
    for (int trial = 0; trial < 24; ++trial) {
        const WireId wire = rng.below(circuit.netlist->numWires());
        const uint64_t cycle = 1 + rng.below(engine.goldenCycles() - 1);
        const double d = (0.1 + 0.8 * rng.uniform()) * period;
        EXPECT_EQ(engine.delayAce(wire, cycle, d),
                  engine.delayAceBruteForce(wire, cycle, d))
            << "seed " << GetParam() << " wire " << wire << " cycle "
            << cycle << " d " << d;
    }
}

TEST_P(EngineRandom, DynamicReachableSubsetOfStatic)
{
    const auto circuit = test::makeRandomCircuit(GetParam() + 40, 10, 70,
                                                 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    const double period = engine.clockPeriod();

    Rng rng(GetParam() * 104729);
    std::vector<StateElemId> static_set;
    for (int trial = 0; trial < 24; ++trial) {
        const WireId wire = rng.below(circuit.netlist->numWires());
        const uint64_t cycle = 1 + rng.below(engine.goldenCycles() - 1);
        const double d = (0.1 + 0.8 * rng.uniform()) * period;

        engine.sta().staticallyReachable(wire, d, period, static_set);
        const auto errors = engine.dynamicErrors(wire, cycle, d);
        for (const auto &[elem, value] : errors) {
            EXPECT_TRUE(std::binary_search(static_set.begin(),
                                           static_set.end(), elem));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandom,
                         ::testing::Range<uint64_t>(1, 9));

TEST(Engine, ForcingGoldenValuesIsNotAce)
{
    const auto circuit = test::makeRandomCircuit(5, 8, 40, 12);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    // Empty force set: nothing changes, so no failure.
    EXPECT_EQ(engine.groupVerdict({}, 3), FailureKind::None);
}

/**
 * A circuit whose sink directly observes one flop: a wrong value forced
 * into that flop is immediately program visible.
 */
struct ObservedFlop
{
    std::unique_ptr<Netlist> nl = std::make_unique<Netlist>();
    StateElemId flop;
    std::unique_ptr<TraceWorkload> workload;

    ObservedFlop()
    {
        ModuleBuilder b(*nl);
        b.pushScope("obs");
        // Toggler flop observed by the sink every cycle.
        const NetId d = b.freshNet("d");
        const NetId q = b.dff(d);
        b.connect(d, b.inv(q));
        const CellId sink = nl->addBehavioral(
            "obs/sink", std::make_shared<TraceSinkModel>(1),
            {{q, b.constant(true)}}, {});
        b.popScope();
        nl->finalize();
        flop = nl->flopStateElem(nl->net(q).driver);
        workload = std::make_unique<TraceWorkload>(sink, 10);
    }
};

TEST(Engine, WrongForcedValueIsSdc)
{
    ObservedFlop c;
    VulnerabilityEngine engine(*c.nl, CellLibrary::defaultLibrary(),
                               *c.workload);
    // Golden sampled value at the edge of cycle 2: flop toggles 0,1,0...
    // at cycle 2 it holds 0 and will latch 1. Force the opposite.
    CycleSimulator probe(*c.nl);
    probe.step();
    probe.step();
    std::vector<uint8_t> sampled;
    probe.step({}, &sampled);
    const bool golden = sampled[c.flop] != 0;

    const CycleSimulator::Force wrong[] = {{c.flop, !golden}};
    EXPECT_EQ(engine.groupVerdict(wrong, 2), FailureKind::Sdc);

    const CycleSimulator::Force same[] = {{c.flop, golden}};
    EXPECT_EQ(engine.groupVerdict(same, 2), FailureKind::None);
}

TEST(Engine, SavfOfObservedFlopIsOne)
{
    ObservedFlop c;
    VulnerabilityEngine engine(*c.nl, CellLibrary::defaultLibrary(),
                               *c.workload);
    StructureRegistry registry(*c.nl);
    const Structure &structure = registry.add("Obs", "obs/");

    SamplingConfig config;
    config.maxInjectionCycles = 4;
    config.threads = 1;
    const SavfResult result = engine.savf(structure, config);
    EXPECT_GT(result.injections, 0u);
    EXPECT_DOUBLE_EQ(result.savf, 1.0);
    EXPECT_EQ(result.sdc, result.aceInjections);
}

TEST(Engine, SavfOfDeadFlopIsZero)
{
    // A flop that feeds nothing observable.
    Netlist nl;
    ModuleBuilder b(nl);
    b.pushScope("dead");
    const NetId d = b.freshNet("d");
    const NetId q = b.dff(d);
    b.connect(d, b.inv(q));
    b.output("unused", b.buf(q)); // An output port... but see below.
    // Observable part: a constant streamed to the sink.
    const CellId sink = nl.addBehavioral(
        "dead/sink", std::make_shared<TraceSinkModel>(1),
        {{b.constant(false), b.constant(true)}}, {});
    b.popScope();
    nl.finalize();
    TraceWorkload workload(sink, 10);

    VulnerabilityEngine engine(nl, CellLibrary::defaultLibrary(),
                               workload);
    StructureRegistry registry(nl);
    // Restrict to the flop only (prefix matches the dff cell name).
    Structure structure;
    structure.name = "flop";
    structure.flops = {nl.flopStateElem(nl.net(q).driver)};

    SamplingConfig config;
    config.maxInjectionCycles = 4;
    config.threads = 1;
    const SavfResult result = engine.savf(structure, config);
    EXPECT_EQ(result.aceInjections, 0u);
    EXPECT_DOUBLE_EQ(result.savf, 0.0);
}

/**
 * SEC-ECC-protected register observed through a corrector — the
 * mechanism behind Fig. 10/11 and the Regfile (ECC) row of Table III.
 */
struct EccRegister
{
    std::unique_ptr<Netlist> nl = std::make_unique<Netlist>();
    std::vector<StateElemId> codeFlops;
    std::unique_ptr<TraceWorkload> workload;

    EccRegister()
    {
        ModuleBuilder b(*nl);
        b.pushScope("eccreg");
        // 4-bit counter as the data source.
        Bus count;
        {
            Bus d = b.freshBus(4, "cnt_d");
            count = b.regB(d, 0, "cnt");
            const Bus plus1 = b.adder(count, b.constantBus(4, 1),
                                      b.constant(false));
            b.connectBus(d, plus1);
        }
        // Encode, register the codeword, correct, observe.
        const Bus code = eccEncode(b, count);
        const Bus code_q = b.regB(code, 0, "code");
        const Bus corrected = eccCorrect(b, code_q, 4);
        Bus sink_in = corrected;
        sink_in.push_back(b.constant(true));
        const CellId sink = nl->addBehavioral(
            "eccreg/sink", std::make_shared<TraceSinkModel>(4), sink_in,
            {});
        b.popScope();
        nl->finalize();
        for (NetId q : code_q)
            codeFlops.push_back(nl->flopStateElem(nl->net(q).driver));
        workload = std::make_unique<TraceWorkload>(sink, 12);
    }
};

TEST(Engine, EccMasksEverySingleBitStrike)
{
    EccRegister c;
    VulnerabilityEngine engine(*c.nl, CellLibrary::defaultLibrary(),
                               *c.workload);
    Structure structure;
    structure.name = "code";
    structure.flops = c.codeFlops;

    SamplingConfig config;
    config.maxInjectionCycles = 3;
    config.threads = 1;
    const SavfResult result = engine.savf(structure, config);
    // Paper §VI-C: "adding a single-error correcting ECC to the
    // register file reduces its sAVF to zero".
    EXPECT_EQ(result.aceInjections, 0u);
    EXPECT_GT(result.injections, 0u);
}

TEST(Engine, EccDoubleErrorCompounds)
{
    EccRegister c;
    VulnerabilityEngine engine(*c.nl, CellLibrary::defaultLibrary(),
                               *c.workload);

    // Golden sampled values at the edge of cycle 4.
    CycleSimulator probe(*c.nl);
    for (int i = 0; i < 4; ++i)
        probe.step();
    std::vector<uint8_t> sampled;
    probe.step({}, &sampled);

    // Each single wrong codeword bit: corrected, not ACE.
    const StateElemId f0 = c.codeFlops[0];
    const StateElemId f1 = c.codeFlops[1];
    const CycleSimulator::Force single0[] = {
        {f0, sampled[f0] == 0}};
    const CycleSimulator::Force single1[] = {
        {f1, sampled[f1] == 0}};
    EXPECT_EQ(engine.groupVerdict(single0, 4), FailureKind::None);
    EXPECT_EQ(engine.groupVerdict(single1, 4), FailureKind::None);

    // Both together: SEC mis-corrects and the wrong value is observed
    // (ACE compounding: GroupACE without any individually ACE element).
    const CycleSimulator::Force both[] = {{f0, sampled[f0] == 0},
                                          {f1, sampled[f1] == 0}};
    EXPECT_EQ(engine.groupVerdict(both, 4), FailureKind::Sdc);
}

TEST(Engine, DelayAvfAggregatesAreConsistent)
{
    const auto circuit = test::makeRandomCircuit(77, 12, 90, 20);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.maxInjectionCycles = 6;
    config.threads = 2;
    const DelayAvfResult result = engine.delayAvf(structure, 0.6, config);

    EXPECT_EQ(result.injections,
              uint64_t{result.wiresInjected} * result.cyclesInjected);
    EXPECT_LE(result.delayAceInjections, result.errorInjections);
    EXPECT_LE(result.errorInjections, result.staticInjections);
    EXPECT_LE(result.staticInjections, result.injections);
    EXPECT_LE(result.multiBitInjections, result.errorInjections);
    EXPECT_EQ(result.sdc + result.due, result.delayAceInjections);
    EXPECT_GE(result.delayAvf, 0.0);
    EXPECT_LE(result.delayAvf, 1.0);
    EXPECT_LE(result.groupAceWireFraction, result.dynamicWireFraction);
    EXPECT_LE(result.dynamicWireFraction, result.staticWireFraction);
    // ORACE bookkeeping: interference + compounding are consistent.
    EXPECT_LE(result.aceInterference, result.orAceInjections);
    EXPECT_LE(result.aceCompounding, result.delayAceInjections);
}

TEST(Engine, DelayAvfIsDeterministicAcrossThreadCounts)
{
    const auto circuit = test::makeRandomCircuit(78, 10, 60, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.maxInjectionCycles = 5;
    config.threads = 1;
    const DelayAvfResult serial = engine.delayAvf(structure, 0.5, config);
    config.threads = 4;
    const DelayAvfResult parallel =
        engine.delayAvf(structure, 0.5, config);

    EXPECT_EQ(serial.delayAceInjections, parallel.delayAceInjections);
    EXPECT_EQ(serial.errorInjections, parallel.errorInjections);
    EXPECT_EQ(serial.orAceInjections, parallel.orAceInjections);
    EXPECT_DOUBLE_EQ(serial.delayAvf, parallel.delayAvf);
}

TEST(Engine, ZeroDelayHasZeroDelayAvf)
{
    const auto circuit = test::makeRandomCircuit(79, 10, 60, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.maxInjectionCycles = 4;
    config.threads = 1;
    // d = 0: the design meets timing; nothing is statically reachable.
    const DelayAvfResult result = engine.delayAvf(structure, 0.0, config);
    EXPECT_EQ(result.staticInjections, 0u);
    EXPECT_DOUBLE_EQ(result.delayAvf, 0.0);
}

TEST(Engine, ObservedPeriodModeTightensTheClock)
{
    const auto circuit = test::makeRandomCircuit(90, 12, 90, 20);
    TraceWorkload &workload = *circuit.workload;

    VulnerabilityEngine sta_engine(*circuit.netlist,
                                   CellLibrary::defaultLibrary(),
                                   workload);
    EngineOptions options;
    options.periodMode =
        EngineOptions::PeriodMode::ObservedMaxPlusMargin;
    VulnerabilityEngine observed_engine(*circuit.netlist,
                                        CellLibrary::defaultLibrary(),
                                        workload, options);

    // The observed period can never exceed the STA bound (plus margin)
    // and both engines must agree on golden behaviour.
    EXPECT_LE(observed_engine.clockPeriod(),
              sta_engine.clockPeriod() * (1.0 + options.periodMargin)
                  + 1e-9);
    EXPECT_GT(observed_engine.clockPeriod(), 0.0);
    EXPECT_EQ(observed_engine.goldenCycles(),
              sta_engine.goldenCycles());
    EXPECT_EQ(observed_engine.goldenOutput(),
              sta_engine.goldenOutput());
}

TEST(Engine, ObservedPeriodMatchesSerialReference)
{
    // The timed golden pass runs in parallel batches of kGoldenBatch
    // cycles; its period must equal, bit for bit, a serial full timed
    // simulation of every golden cycle with the endpoint scan. The
    // lengths cover a lone cycle, a partial first batch, an exact
    // batch, and full batches followed by a remainder flush.
    constexpr uint64_t kBatch = VulnerabilityEngine::kGoldenBatch;
    for (uint64_t cycles : {uint64_t{1}, kBatch - 1, kBatch, kBatch + 1,
                            3 * kBatch + 5}) {
        const auto circuit =
            test::makeRandomCircuit(95 + cycles, 12, 90, cycles);
        const Netlist &nl = *circuit.netlist;
        EngineOptions options;
        options.periodMode =
            EngineOptions::PeriodMode::ObservedMaxPlusMargin;
        const VulnerabilityEngine engine(
            nl, CellLibrary::defaultLibrary(), *circuit.workload, options);
        ASSERT_EQ(engine.goldenCycles(), cycles);

        DelayModel delays(nl, CellLibrary::defaultLibrary());
        TimedSimulator tsim(delays);
        CycleSimulator sim(nl);
        CycleWaveforms wf;
        double observed = 0.0;
        for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
            const std::vector<uint8_t> pre = sim.netValues_();
            sim.step();
            tsim.simulateCycle(pre, sim.netValues_(), engine.clockPeriod(),
                               wf);
            observed = std::max(observed,
                                test::scanEndpointArrival(delays, wf));
        }
        EXPECT_EQ(engine.observedMaxArrival(), observed)
            << cycles << " golden cycles";
        EXPECT_EQ(engine.clockPeriod(),
                  observed * (1.0 + options.periodMargin))
            << cycles << " golden cycles";
    }
}

TEST(Engine, TwoStepMatchesBruteForceUnderObservedPeriod)
{
    // The exactness property must hold at any valid clock period.
    const auto circuit = test::makeRandomCircuit(91, 10, 70, 16);
    EngineOptions options;
    options.periodMode =
        EngineOptions::PeriodMode::ObservedMaxPlusMargin;
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload, options);
    Rng rng(9177);
    for (int trial = 0; trial < 20; ++trial) {
        const WireId wire = rng.below(circuit.netlist->numWires());
        const uint64_t cycle = 1 + rng.below(engine.goldenCycles() - 1);
        const double d =
            (0.1 + 0.8 * rng.uniform()) * engine.clockPeriod();
        EXPECT_EQ(engine.delayAce(wire, cycle, d),
                  engine.delayAceBruteForce(wire, cycle, d))
            << "wire " << wire << " cycle " << cycle << " d " << d;
    }
}

TEST(Engine, PerWireRecordingIsConsistent)
{
    const auto circuit = test::makeRandomCircuit(92, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.maxInjectionCycles = 5;
    config.threads = 1;
    config.recordPerWire = true;
    const DelayAvfResult result = engine.delayAvf(structure, 0.7, config);

    ASSERT_EQ(result.injectedWires.size(), result.wiresInjected);
    ASSERT_EQ(result.perWireAce.size(), result.wiresInjected);
    uint64_t total = 0;
    for (uint32_t count : result.perWireAce) {
        EXPECT_LE(count, result.cyclesInjected);
        total += count;
    }
    EXPECT_EQ(total, result.delayAceInjections);
}

TEST(Engine, HangIsClassifiedAsDue)
{
    // A circuit whose done-signal is a flop: forcing it to never fire
    // makes the run overshoot the watchdog -> DUE. Build: a counter
    // reaching 12 raises "done"; the workload watches that.
    Netlist nl;
    ModuleBuilder b(nl);
    b.pushScope("ctr");
    Bus d = b.freshBus(5, "cnt_d");
    const Bus count = b.regB(d, 0, "cnt");
    b.connectBus(d, b.adder(count, b.constantBus(5, 1),
                            b.constant(false)));
    const NetId done = b.equal(count, b.constantBus(5, 12));
    const CellId sink = nl.addBehavioral(
        "ctr/sink", std::make_shared<TraceSinkModel>(1),
        {{done, b.constant(true)}}, {});
    b.popScope();
    nl.finalize();

    /** Workload: done when the sink last recorded a 1. */
    class DoneWorkload : public TraceWorkload
    {
      public:
        using TraceWorkload::TraceWorkload;
        bool
        done(const CycleSimulator &sim) const override
        {
            const auto trace = outputTrace(sim);
            return !trace.empty() && trace.back() == 1;
        }
    };
    DoneWorkload workload(sink, 1u << 20);

    VulnerabilityEngine engine(nl, CellLibrary::defaultLibrary(),
                               workload);
    EXPECT_EQ(engine.goldenCycles(), 13u);

    // Force the counter's MSB flop at an edge so the count skips past
    // 12 and wraps forever short of it... flipping bit 4 at cycle 10
    // (count = 10 -> latches 27 instead of 11; the counter then wraps
    // and *will* eventually pass 12 again, so pick the force that
    // stalls: force bit0 low every... simpler: verify the verdict is a
    // failure of some kind and the watchdog terminates.
    const StateElemId msb = nl.flopsByPrefix("ctr/cnt4")[0];
    const CycleSimulator::Force wrong[] = {{msb, true}};
    const FailureKind verdict = engine.groupVerdict(wrong, 10, 64);
    // count jumps to 16+11=27, wraps 28..31 -> 0..12: it reaches 12
    // later than golden but with the same (empty-until-1) trace: the
    // output history is 0s then 1, but the golden trace has exactly 13
    // entries while the faulty has more -> SDC; either failure kind is
    // acceptable, what matters is that it IS a failure and terminates.
    EXPECT_NE(verdict, FailureKind::None);
}

TEST(Engine, SamplingEdgeCases)
{
    const auto circuit = test::makeRandomCircuit(93, 8, 40, 6);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    // Wire cap larger than the structure: everything injected once.
    SamplingConfig config;
    config.maxInjectionCycles = 3;
    config.maxWires = structure.wires.size() * 10;
    config.threads = 1;
    const DelayAvfResult all_wires =
        engine.delayAvf(structure, 0.5, config);
    EXPECT_EQ(all_wires.wiresInjected, structure.wires.size());

    // cycleFraction = 1 with a large cap: every usable cycle sampled.
    config.cycleFraction = 1.0;
    config.maxInjectionCycles = 1000;
    const DelayAvfResult all_cycles =
        engine.delayAvf(structure, 0.5, config);
    EXPECT_EQ(all_cycles.cyclesInjected, engine.goldenCycles() - 1);

    // Counters stay coherent in the exhaustive case too.
    EXPECT_LE(all_cycles.skippedNoToggle, all_cycles.staticInjections);
    EXPECT_EQ(all_cycles.sdc + all_cycles.due,
              all_cycles.delayAceInjections);
}

TEST(Engine, WireSamplingIsSeedStableAndDeterministic)
{
    const auto circuit = test::makeRandomCircuit(94, 10, 60, 12);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.maxInjectionCycles = 4;
    config.maxWires = structure.wires.size() / 2;
    config.recordPerWire = true;
    config.threads = 2;

    const DelayAvfResult first = engine.delayAvf(structure, 0.6, config);
    const DelayAvfResult second =
        engine.delayAvf(structure, 0.6, config);
    EXPECT_EQ(first.injectedWires, second.injectedWires);
    EXPECT_EQ(first.perWireAce, second.perWireAce);

    config.seed = 99;
    const DelayAvfResult other = engine.delayAvf(structure, 0.6, config);
    EXPECT_NE(first.injectedWires, other.injectedWires);
}

TEST(Engine, SavfDeterministicAcrossThreads)
{
    const auto circuit = test::makeRandomCircuit(95, 10, 60, 12);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.maxInjectionCycles = 4;
    config.threads = 1;
    const SavfResult serial = engine.savf(structure, config);
    config.threads = 4;
    const SavfResult parallel = engine.savf(structure, config);
    EXPECT_EQ(serial.aceInjections, parallel.aceInjections);
    EXPECT_EQ(serial.sdc, parallel.sdc);
    EXPECT_EQ(serial.due, parallel.due);
}

/**
 * @name Vector-vs-scalar differential suite
 *
 * The engine's bit-parallel path (EngineOptions::vectorize) must be a
 * pure speed knob: byte-identical InjectionCycleOutcomes, aggregates,
 * and JSON reports against the scalar reference, at any lane width,
 * thread count, shard range, and across checkpoint/resume — that is
 * what keeps davf_serve's persistent store valid regardless of which
 * path computed a record.
 */
/// @{

class VectorDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(VectorDifferential, DelayAvfCycleOutcomesBitIdentical)
{
    const auto circuit = test::makeRandomCircuit(GetParam() + 300, 10,
                                                 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 3;
    config.threads = 1;
    for (uint64_t cycle : engine.injectionCycles(config)) {
        engine.setVectorMode(false);
        const InjectionCycleOutcome scalar =
            engine.delayAvfCycle(structure, 0.6, cycle, config);
        // A narrow lane width exercises multi-batch resolution; the
        // full width exercises the common case.
        engine.setVectorMode(true, 4);
        const InjectionCycleOutcome vec4 =
            engine.delayAvfCycle(structure, 0.6, cycle, config);
        engine.setVectorMode(true, 64);
        const InjectionCycleOutcome vec64 =
            engine.delayAvfCycle(structure, 0.6, cycle, config);
        EXPECT_TRUE(scalar == vec4) << "cycle " << cycle;
        EXPECT_TRUE(scalar == vec64) << "cycle " << cycle;
        EXPECT_GT(scalar.injections, 0u);
    }
}

TEST_P(VectorDifferential, ShardRangesAndQuarantineBitIdentical)
{
    // The process-isolation worker primitive: partial wire ranges and
    // quarantined injection indices must not disturb bit-identity, so a
    // supervised campaign may mix vector and scalar workers freely.
    const auto circuit = test::makeRandomCircuit(GetParam() + 320, 10,
                                                 60, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.2;
    config.maxInjectionCycles = 2;
    config.threads = 1;
    const std::vector<WireId> wires =
        engine.sampledWires(structure, config);
    ASSERT_GT(wires.size(), 4u);
    const size_t mid = wires.size() / 2;
    const std::vector<size_t> quarantined = {1, mid, wires.size() - 1};

    for (uint64_t cycle : engine.injectionCycles(config)) {
        engine.setVectorMode(false);
        const InjectionCycleOutcome lo_s = engine.delayAvfCycle(
            structure, 0.7, cycle, config, 0, mid, quarantined);
        const InjectionCycleOutcome hi_s = engine.delayAvfCycle(
            structure, 0.7, cycle, config, mid, SIZE_MAX, quarantined);
        engine.setVectorMode(true, 64);
        const InjectionCycleOutcome lo_v = engine.delayAvfCycle(
            structure, 0.7, cycle, config, 0, mid, quarantined);
        const InjectionCycleOutcome hi_v = engine.delayAvfCycle(
            structure, 0.7, cycle, config, mid, SIZE_MAX, quarantined);
        EXPECT_TRUE(lo_s == lo_v) << "low shard, cycle " << cycle;
        EXPECT_TRUE(hi_s == hi_v) << "high shard, cycle " << cycle;
        EXPECT_GT(lo_s.skipReasons.count("quarantined"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorDifferential,
                         ::testing::Range<uint64_t>(1, 6));

TEST(VectorDifferential, DelayAvfJsonBitIdenticalAcrossThreads)
{
    const auto circuit = test::makeRandomCircuit(330, 12, 90, 20);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.25;
    config.maxInjectionCycles = 4;
    config.recordPerWire = true;

    auto report = [&](bool vectorize, unsigned threads) {
        engine.setVectorMode(vectorize);
        config.threads = threads;
        ReportRow row;
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.delayFraction = 0.6;
        row.davf = engine.delayAvf(structure, 0.6, config);
        return reportJson({row});
    };

    const std::string scalar1 = report(false, 1);
    const std::string scalar4 = report(false, 4);
    const std::string vector1 = report(true, 1);
    const std::string vector4 = report(true, 4);
    EXPECT_EQ(scalar1, scalar4);
    EXPECT_EQ(scalar1, vector1);
    EXPECT_EQ(scalar1, vector4);
}

TEST(VectorDifferential, SavfJsonBitIdenticalAcrossThreads)
{
    const auto circuit = test::makeRandomCircuit(331, 12, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.maxInjectionCycles = 4;

    auto report = [&](bool vectorize, unsigned threads) {
        engine.setVectorMode(vectorize);
        config.threads = threads;
        ReportRow row;
        row.kind = "savf";
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.savf = engine.savf(structure, config);
        return reportJson({row});
    };

    const std::string scalar1 = report(false, 1);
    const std::string scalar4 = report(false, 4);
    const std::string vector1 = report(true, 1);
    const std::string vector4 = report(true, 4);
    EXPECT_EQ(scalar1, scalar4);
    EXPECT_EQ(scalar1, vector1);
    EXPECT_EQ(scalar1, vector4);

    // A narrow lane width forces several batches per task.
    engine.setVectorMode(true, 3);
    config.threads = 2;
    ReportRow row;
    row.kind = "savf";
    row.benchmark = "rnd";
    row.structure = "Rnd";
    row.savf = engine.savf(structure, config);
    EXPECT_EQ(scalar1, reportJson({row}));
}

TEST(VectorDifferential, ResumeMidCellCrossesPaths)
{
    // Half the injection cycles computed (and checkpointed) by the
    // scalar path, the rest by the vector path after a "resume" — the
    // aggregate must equal an uninterrupted run of either path.
    const auto circuit = test::makeRandomCircuit(332, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 4;
    config.threads = 2;
    const std::vector<uint64_t> cycles = engine.injectionCycles(config);
    ASSERT_GE(cycles.size(), 2u);

    engine.setVectorMode(false);
    DelayAvfProgress capture;
    std::vector<InjectionCycleOutcome> outcomes;
    capture.onCycleDone = [&](const InjectionCycleOutcome &outcome) {
        outcomes.push_back(outcome);
    };
    const DelayAvfResult scalar_full =
        engine.delayAvf(structure, 0.6, config, &capture);
    ASSERT_EQ(outcomes.size(), cycles.size());

    // Adopt outcomes for the first half of the schedule, as a resumed
    // campaign would from its journal's partial-cell records.
    DelayAvfProgress resume;
    for (const InjectionCycleOutcome &outcome : outcomes) {
        for (size_t i = 0; i < cycles.size() / 2; ++i) {
            if (outcome.cycle == cycles[i])
                resume.completed.push_back(outcome);
        }
    }
    ASSERT_FALSE(resume.completed.empty());

    engine.setVectorMode(true);
    const DelayAvfResult resumed =
        engine.delayAvf(structure, 0.6, config, &resume);

    auto json = [](const DelayAvfResult &result) {
        ReportRow row;
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.delayFraction = 0.6;
        row.davf = result;
        return reportJson({row});
    };
    EXPECT_EQ(json(scalar_full), json(resumed));

    // And the mirror image: vector-computed outcomes adopted by a
    // scalar resume.
    engine.setVectorMode(true);
    outcomes.clear();
    const DelayAvfResult vector_full =
        engine.delayAvf(structure, 0.6, config, &capture);
    EXPECT_EQ(json(scalar_full), json(vector_full));

    DelayAvfProgress resume_back;
    for (const InjectionCycleOutcome &outcome : outcomes) {
        for (size_t i = cycles.size() / 2; i < cycles.size(); ++i) {
            if (outcome.cycle == cycles[i])
                resume_back.completed.push_back(outcome);
        }
    }
    engine.setVectorMode(false);
    const DelayAvfResult resumed_back =
        engine.delayAvf(structure, 0.6, config, &resume_back);
    EXPECT_EQ(json(scalar_full), json(resumed_back));
}

/**
 * @name Lane-parallel timed-simulator differential suite
 *
 * EngineOptions::vectorTsim batches the per-wire cone re-simulations of
 * one injection cycle onto the lane-parallel timed simulator. Like the
 * continuation vector path, it must be a pure speed knob: byte-identical
 * outcomes and reports against the scalar cone loop at any lane count,
 * thread count, and across checkpoint/resume.
 */
/// @{

class TsimDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(TsimDifferential, CycleOutcomesBitIdenticalAcrossLaneCounts)
{
    const auto circuit = test::makeRandomCircuit(GetParam() + 500, 10,
                                                 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 3;
    config.threads = 1;
    for (uint64_t cycle : engine.injectionCycles(config)) {
        engine.setTsimVectorMode(false, 1);
        const InjectionCycleOutcome scalar =
            engine.delayAvfCycle(structure, 0.6, cycle, config);
        // Lane count 1 must degrade to the scalar loop; 4 forces many
        // small batches; 64 is the common case.
        for (unsigned lanes : {1u, 4u, 64u}) {
            engine.setTsimVectorMode(true, lanes);
            const InjectionCycleOutcome vec =
                engine.delayAvfCycle(structure, 0.6, cycle, config);
            EXPECT_TRUE(scalar == vec)
                << "cycle " << cycle << " lanes " << lanes;
        }
        EXPECT_GT(scalar.injections, 0u);
    }
    engine.setTsimVectorMode(true, 64);
}

TEST_P(TsimDifferential, BatchedVerdictsMatchBruteForce)
{
    // The exactness claim end to end on the batched path: every
    // per-wire ACE verdict in a lane-batched injection cycle equals a
    // brute-force full-circuit timed simulation of that one fault.
    const auto circuit = test::makeRandomCircuit(GetParam() + 520, 10,
                                                 60, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.2;
    config.maxInjectionCycles = 2;
    config.maxWires = 20;
    config.threads = 1;
    const std::vector<WireId> wires =
        engine.sampledWires(structure, config);
    const double delay_ps = 0.7 * engine.clockPeriod();

    engine.setTsimVectorMode(true, 64);
    for (uint64_t cycle : engine.injectionCycles(config)) {
        const InjectionCycleOutcome outcome =
            engine.delayAvfCycle(structure, 0.7, cycle, config);
        ASSERT_EQ(outcome.wireAce.size(), wires.size());
        for (size_t i = 0; i < wires.size(); ++i) {
            EXPECT_EQ(outcome.wireAce[i] != 0,
                      engine.delayAceBruteForce(wires[i], cycle,
                                                delay_ps))
                << "seed " << GetParam() << " cycle " << cycle
                << " wire " << wires[i];
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsimDifferential,
                         ::testing::Range<uint64_t>(1, 5));

TEST(TsimDifferential, DelayAvfJsonBitIdenticalAcrossThreadsAndLanes)
{
    const auto circuit = test::makeRandomCircuit(530, 12, 90, 20);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.25;
    config.maxInjectionCycles = 4;
    config.recordPerWire = true;

    auto report = [&](bool vector_tsim, unsigned lanes,
                      unsigned threads) {
        engine.setTsimVectorMode(vector_tsim, lanes);
        config.threads = threads;
        ReportRow row;
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.delayFraction = 0.6;
        row.davf = engine.delayAvf(structure, 0.6, config);
        return reportJson({row});
    };

    const std::string scalar1 = report(false, 1, 1);
    EXPECT_EQ(scalar1, report(false, 1, 4));
    EXPECT_EQ(scalar1, report(true, 4, 1));
    EXPECT_EQ(scalar1, report(true, 64, 1));
    EXPECT_EQ(scalar1, report(true, 64, 4));
    EXPECT_EQ(scalar1, report(true, 4, 4));
    engine.setTsimVectorMode(true, 64);
}

TEST(TsimDifferential, ResumeCrossesTsimPaths)
{
    // Half the injection cycles checkpointed by the scalar cone loop,
    // the rest computed lane-batched after a resume — and the mirror
    // image — must equal an uninterrupted run of either flavor.
    const auto circuit = test::makeRandomCircuit(531, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 4;
    config.threads = 2;
    const std::vector<uint64_t> cycles = engine.injectionCycles(config);
    ASSERT_GE(cycles.size(), 2u);

    auto json = [](const DelayAvfResult &result) {
        ReportRow row;
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.delayFraction = 0.6;
        row.davf = result;
        return reportJson({row});
    };

    engine.setTsimVectorMode(false, 1);
    DelayAvfProgress capture;
    std::vector<InjectionCycleOutcome> outcomes;
    capture.onCycleDone = [&](const InjectionCycleOutcome &outcome) {
        outcomes.push_back(outcome);
    };
    const DelayAvfResult scalar_full =
        engine.delayAvf(structure, 0.6, config, &capture);
    ASSERT_EQ(outcomes.size(), cycles.size());

    DelayAvfProgress resume;
    for (const InjectionCycleOutcome &outcome : outcomes) {
        for (size_t i = 0; i < cycles.size() / 2; ++i) {
            if (outcome.cycle == cycles[i])
                resume.completed.push_back(outcome);
        }
    }
    ASSERT_FALSE(resume.completed.empty());
    engine.setTsimVectorMode(true, 64);
    const DelayAvfResult resumed =
        engine.delayAvf(structure, 0.6, config, &resume);
    EXPECT_EQ(json(scalar_full), json(resumed));

    engine.setTsimVectorMode(true, 64);
    outcomes.clear();
    const DelayAvfResult vector_full =
        engine.delayAvf(structure, 0.6, config, &capture);
    EXPECT_EQ(json(scalar_full), json(vector_full));

    DelayAvfProgress resume_back;
    for (const InjectionCycleOutcome &outcome : outcomes) {
        for (size_t i = cycles.size() / 2; i < cycles.size(); ++i) {
            if (outcome.cycle == cycles[i])
                resume_back.completed.push_back(outcome);
        }
    }
    engine.setTsimVectorMode(false, 1);
    const DelayAvfResult resumed_back =
        engine.delayAvf(structure, 0.6, config, &resume_back);
    EXPECT_EQ(json(scalar_full), json(resumed_back));
    engine.setTsimVectorMode(true, 64);
}

/// @}
/**
 * @name Cross-delay sweep reuse
 *
 * beginDelaySweep() lets adjacent delay values of one campaign share
 * per-cycle golden contexts, STA filter results, and failure verdicts.
 * Every reuse rule is provably outcome-preserving, so a sweep must be
 * byte-identical to independent per-delay runs — including the derived
 * counters — at any thread count.
 */
/// @{

TEST(SweepReuse, MultiDelaySweepBitIdenticalToIndependentRuns)
{
    const auto circuit = test::makeRandomCircuit(540, 12, 90, 20);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.25;
    config.maxInjectionCycles = 4;
    config.recordPerWire = true;
    const std::vector<double> fractions = {0.2, 0.45, 0.7, 0.95};

    auto row_json = [&](double d) {
        ReportRow row;
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.delayFraction = d;
        row.davf = engine.delayAvf(structure, d, config);
        return reportJson({row});
    };

    // Reference: one fresh, sweep-blind run per delay value.
    std::map<double, std::string> independent;
    config.threads = 1;
    for (double d : fractions)
        independent[d] = row_json(d);

    for (unsigned threads : {1u, 4u}) {
        for (bool vector_tsim : {true, false}) {
            config.threads = threads;
            engine.setTsimVectorMode(vector_tsim, 64);
            engine.beginDelaySweep(fractions);
            for (double d : fractions) {
                EXPECT_EQ(independent.at(d), row_json(d))
                    << "d " << d << " threads " << threads
                    << " vectorTsim " << vector_tsim;
            }
            engine.endDelaySweep();
        }
    }

    // Visiting the delay list in descending order must not matter.
    config.threads = 2;
    engine.setTsimVectorMode(true, 64);
    engine.beginDelaySweep(fractions);
    for (auto it = fractions.rbegin(); it != fractions.rend(); ++it)
        EXPECT_EQ(independent.at(*it), row_json(*it)) << "d " << *it;
    engine.endDelaySweep();
}

TEST(SweepReuse, ReuseCountersAreScheduleInvariant)
{
    const auto circuit = test::makeRandomCircuit(541, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 3;
    const std::vector<double> fractions = {0.3, 0.6, 0.9};

    auto countersOf = [&](unsigned threads) {
        obs::MetricsRegistry::instance().reset();
        obs::MetricsRegistry::setEnabled(true);
        config.threads = threads;
        engine.beginDelaySweep(fractions);
        for (double d : fractions)
            engine.delayAvf(structure, d, config);
        engine.endDelaySweep();
        obs::MetricsRegistry::setEnabled(false);
        std::map<std::string, uint64_t> counters =
            obs::MetricsRegistry::instance().snapshot().counters;
        obs::MetricsRegistry::instance().reset();
        for (auto it = counters.begin(); it != counters.end();) {
            const std::string &name = it->first;
            if (name.size() > 3
                && name.compare(name.size() - 3, 3, "_ns") == 0)
                it = counters.erase(it);
            else
                ++it;
        }
        return counters;
    };

    const auto one = countersOf(1);
    EXPECT_EQ(one, countersOf(4));
    // The second and third delay values run entirely out of the shared
    // caches' golden contexts, and verdict reuse must actually fire.
    EXPECT_GT(one.at("engine.tsim.ctx_reuse"), 0u);
    EXPECT_GT(one.at("engine.tsim.sta_reuse"), 0u);
    EXPECT_GT(one.at("engine.tsim.sweep_verdict_reuse"), 0u);
}

/// @}

TEST(Observability, MetricsAndTracingNeverPerturbResults)
{
    // The observability layer's contract: with collection and tracing
    // on, every result byte — report JSON, per-cycle checkpoint/store
    // records — is identical to a run with them off, across thread
    // counts and the vector/scalar switch. Metrics may only *observe*.
    const auto circuit = test::makeRandomCircuit(333, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 4;
    config.recordPerWire = true;

    // One run's complete byte surface: the report JSON plus every
    // serialized per-cycle outcome (the checkpoint-journal / result-
    // store payload), in cycle order.
    auto resultBytes = [&](bool observe, bool vectorize,
                           unsigned threads) {
        obs::MetricsRegistry::instance().reset();
        obs::Trace::clear();
        obs::MetricsRegistry::setEnabled(observe);
        obs::Trace::setEnabled(observe);

        engine.setVectorMode(vectorize);
        config.threads = threads;
        DelayAvfProgress capture;
        std::map<uint64_t, std::string> records;
        capture.onCycleDone = [&](const InjectionCycleOutcome &out) {
            records[out.cycle] = serializeOutcomeFields(out);
        };
        ReportRow row;
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.delayFraction = 0.6;
        row.davf = engine.delayAvf(structure, 0.6, config, &capture);

        obs::MetricsRegistry::setEnabled(false);
        obs::Trace::setEnabled(false);
        obs::MetricsRegistry::instance().reset();
        obs::Trace::clear();

        std::string bytes = reportJson({row});
        for (const auto &[cycle, record] : records) {
            bytes += '\n';
            bytes += record;
        }
        return bytes;
    };

    const std::string baseline = resultBytes(false, true, 1);
    EXPECT_EQ(baseline, resultBytes(false, false, 4));
    EXPECT_EQ(baseline, resultBytes(true, true, 1));
    EXPECT_EQ(baseline, resultBytes(true, true, 4));
    EXPECT_EQ(baseline, resultBytes(true, false, 1));
    EXPECT_EQ(baseline, resultBytes(true, false, 4));
}

TEST(Observability, EngineCountersAreDeterministicAcrossSchedules)
{
    // The non-timing counters derive from per-cycle outcomes, so the
    // snapshot (with `_ns` entries masked out) must not depend on the
    // thread count or the vector/scalar switch's batching.
    const auto circuit = test::makeRandomCircuit(334, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 4;

    auto countersOf = [&](bool vectorize, unsigned threads) {
        obs::MetricsRegistry::instance().reset();
        obs::MetricsRegistry::setEnabled(true);
        engine.setVectorMode(vectorize, vectorize ? 4 : 64);
        config.threads = threads;
        engine.delayAvf(structure, 0.6, config);
        obs::MetricsRegistry::setEnabled(false);
        std::map<std::string, uint64_t> counters =
            obs::MetricsRegistry::instance().snapshot().counters;
        obs::MetricsRegistry::instance().reset();
        for (auto it = counters.begin(); it != counters.end();) {
            const std::string &name = it->first;
            if (name.size() > 3
                && name.compare(name.size() - 3, 3, "_ns") == 0)
                it = counters.erase(it);
            else
                ++it;
        }
        return counters;
    };

    const auto vector1 = countersOf(true, 1);
    EXPECT_EQ(vector1, countersOf(true, 4));
    EXPECT_GT(vector1.at("engine.cycles_computed"), 0u);
    EXPECT_GT(vector1.at("engine.vector.batches"), 0u);

    const auto scalar1 = countersOf(false, 1);
    EXPECT_EQ(scalar1, countersOf(false, 4));
    EXPECT_EQ(scalar1.at("engine.injections"),
              vector1.at("engine.injections"));
    // The vector path's memo-hit accounting replays the scalar demand
    // order, so the hit counters agree exactly across paths.
    EXPECT_EQ(scalar1.at("engine.memo_hits_group"),
              vector1.at("engine.memo_hits_group"));
    EXPECT_EQ(scalar1.at("engine.memo_hits_orace"),
              vector1.at("engine.memo_hits_orace"));
}

/// @}
/**
 * @name Aggregation without the engine
 *
 * delayAvf() with every cycle already completed, and
 * aggregateDelayAvf(), aggregate without STA: the static-wire count is
 * read off a quarantine-free outcome. These tests pin the invariant
 * that makes that exact (on both continuation paths) and compare the
 * STA-free results against STA-backed aggregation of the same outcomes.
 */
/// @{

/** Everything a DelayAvfResult carries, report bytes first. */
void
expectSameResult(const DelayAvfResult &expected,
                 const DelayAvfResult &actual)
{
    auto json = [](const DelayAvfResult &result) {
        ReportRow row;
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.delayFraction = 0.6;
        row.davf = result;
        return reportJson({row});
    };
    EXPECT_EQ(json(expected), json(actual));
    EXPECT_EQ(expected.staticWireFraction, actual.staticWireFraction);
    EXPECT_EQ(expected.staticInjections, actual.staticInjections);
    EXPECT_EQ(expected.delayAceInjections, actual.delayAceInjections);
    EXPECT_EQ(expected.orAceInjections, actual.orAceInjections);
    EXPECT_EQ(expected.skippedNoToggle, actual.skippedNoToggle);
    EXPECT_EQ(expected.uniqueGroupSims, actual.uniqueGroupSims);
    EXPECT_EQ(expected.skippedErrors, actual.skippedErrors);
    EXPECT_EQ(expected.skipReasons, actual.skipReasons);
    EXPECT_EQ(expected.stopped, actual.stopped);
    EXPECT_EQ(expected.wiresInjected, actual.wiresInjected);
    EXPECT_EQ(expected.cyclesInjected, actual.cyclesInjected);
    EXPECT_EQ(expected.injectedWires, actual.injectedWires);
    EXPECT_EQ(expected.perWireAce, actual.perWireAce);
    EXPECT_EQ(expected.attrValid, actual.attrValid);
    EXPECT_EQ(expected.attribution, actual.attribution);
}

/** Sampled-wire indices whose static set at @p delay_fraction is
 *  non-empty (engine.sta() is the reference STA filter). */
std::vector<size_t>
staticWireIndices(const VulnerabilityEngine &engine,
                  const std::vector<WireId> &wires, double delay_fraction)
{
    const double period = engine.clockPeriod();
    std::vector<size_t> indices;
    std::vector<StateElemId> reachable;
    for (size_t i = 0; i < wires.size(); ++i) {
        engine.sta().staticallyReachable(wires[i], delay_fraction * period,
                                         period, reachable);
        if (!reachable.empty())
            indices.push_back(i);
    }
    return indices;
}

uint64_t
staFallbacks()
{
    return obs::MetricsRegistry::instance().snapshot().counters.at(
        "engine.aggregate.sta_fallbacks");
}

TEST(Aggregation, StaticInjectionsCountNonEmptyStaticSets)
{
    // The invariant behind STA-free aggregation: a cycle outcome that
    // quarantined nothing counted one staticInjection per sampled wire
    // with a non-empty static set — on both continuation paths, and
    // also when injections time out after the STA gate.
    for (uint64_t seed : {601u, 602u, 603u}) {
        const auto circuit = test::makeRandomCircuit(seed, 10, 70, 16);
        VulnerabilityEngine engine(*circuit.netlist,
                                   CellLibrary::defaultLibrary(),
                                   *circuit.workload);
        StructureRegistry registry(*circuit.netlist);
        const Structure &structure = registry.add("Rnd", "rnd/");

        SamplingConfig config;
        config.cycleFraction = 0.3;
        config.maxInjectionCycles = 3;
        config.threads = 1;
        const std::vector<WireId> wires =
            engine.sampledWires(structure, config);
        for (double d : {0.2, 0.5, 0.9}) {
            const std::vector<size_t> nonempty =
                staticWireIndices(engine, wires, d);
            ASSERT_FALSE(nonempty.empty()) << "seed " << seed;
            // Quarantining a wire with a non-empty static set removes
            // its staticInjection, so such outcomes cannot be used.
            const std::vector<size_t> quarantined = {nonempty.front()};
            for (uint64_t cycle : engine.injectionCycles(config)) {
                for (bool vectorize : {false, true}) {
                    engine.setVectorMode(vectorize);
                    const InjectionCycleOutcome clean =
                        engine.delayAvfCycle(structure, d, cycle, config);
                    EXPECT_EQ(clean.staticInjections, nonempty.size())
                        << "seed " << seed << " d " << d << " cycle "
                        << cycle << " vector " << vectorize;
                    EXPECT_FALSE(clean.skipReasons.contains("quarantined"));
                    const InjectionCycleOutcome skipped =
                        engine.delayAvfCycle(structure, d, cycle, config, 0,
                                             SIZE_MAX, quarantined);
                    EXPECT_EQ(skipped.staticInjections, nonempty.size() - 1);
                }
                SamplingConfig timed = config;
                timed.injectionTimeoutMs = 1e-9;
                const InjectionCycleOutcome timed_out =
                    engine.delayAvfCycle(structure, d, cycle, timed);
                EXPECT_EQ(timed_out.staticInjections, nonempty.size());
            }
        }
    }
}

TEST(Aggregation, CompletedOutcomesMatchStaBackedRun)
{
    // A cold delayAvf() runs the STA filter and counts the static-wire
    // fraction from its sets; re-aggregating its outcomes (in any
    // order, through either entry point) must reproduce it byte for
    // byte without STA — with attribution and per-wire recording on.
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::setEnabled(true);
    test::CycleAttributionTap tap;
    uint64_t ace = 0;
    size_t attr_rows = 0;
    for (uint64_t seed : {611u, 612u, 613u}) {
        const auto circuit = test::makeRandomCircuit(seed, 10, 70, 16);
        VulnerabilityEngine engine(*circuit.netlist,
                                   CellLibrary::defaultLibrary(),
                                   *circuit.workload);
        engine.setAttributionTap(&tap);
        StructureRegistry registry(*circuit.netlist);
        const Structure &structure = registry.add("Rnd", "rnd/");

        for (int variant = 0; variant < 4; ++variant) {
            SamplingConfig config;
            config.cycleFraction = 0.3;
            config.maxInjectionCycles = 4;
            config.threads = 2;
            config.attribution = variant & 1;
            config.recordPerWire = variant & 2;
            engine.setVectorMode(variant != 0);

            DelayAvfProgress capture;
            const DelayAvfResult cold =
                engine.delayAvf(structure, 0.6, config, &capture);
            ASSERT_FALSE(cold.stopped);
            ASSERT_EQ(capture.completed.size(),
                      engine.injectionCycles(config).size());
            EXPECT_EQ(cold.attrValid, config.attribution);
            ace += cold.delayAceInjections;
            attr_rows += cold.attribution.size();

            std::vector<InjectionCycleOutcome> reversed(
                capture.completed.rbegin(), capture.completed.rend());
            const auto aggregated =
                engine.aggregateDelayAvf(structure, config, reversed);
            ASSERT_TRUE(aggregated.has_value());
            expectSameResult(cold, *aggregated);

            const uint64_t fallbacks = staFallbacks();
            DelayAvfProgress resume;
            resume.completed = reversed;
            expectSameResult(cold, engine.delayAvf(structure, 0.6, config,
                                                   &resume));
            EXPECT_EQ(staFallbacks(), fallbacks);
        }
    }
    EXPECT_GT(ace, 0u);
    EXPECT_GT(attr_rows, 0u);
    obs::MetricsRegistry::setEnabled(false);
    obs::MetricsRegistry::instance().reset();
}

TEST(Aggregation, QuarantineInSomeCyclesIsDerivedFromTheOthers)
{
    const auto circuit = test::makeRandomCircuit(621, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 4;
    config.threads = 2;
    config.recordPerWire = true;
    const std::vector<uint64_t> cycles = engine.injectionCycles(config);
    ASSERT_GE(cycles.size(), 3u);
    const std::vector<WireId> wires =
        engine.sampledWires(structure, config);
    const std::vector<size_t> nonempty =
        staticWireIndices(engine, wires, 0.6);
    ASSERT_GE(nonempty.size(), 2u);

    // The first two scheduled cycles quarantine wires that pass the STA
    // filter, so their staticInjections undercount the static wires.
    std::vector<InjectionCycleOutcome> outcomes;
    for (size_t i = 0; i < cycles.size(); ++i) {
        std::vector<size_t> quarantined;
        if (i < 2)
            quarantined = {nonempty.front(), nonempty.back()};
        outcomes.push_back(engine.delayAvfCycle(
            structure, 0.6, cycles[i], config, 0, SIZE_MAX, quarantined));
    }

    // STA-backed reference: resume from the quarantined cycles only, so
    // delayAvf() computes the rest and counts static wires from its sets.
    DelayAvfProgress partial;
    partial.completed = {outcomes[0], outcomes[1]};
    const DelayAvfResult reference =
        engine.delayAvf(structure, 0.6, config, &partial);
    ASSERT_EQ(partial.completed, outcomes);
    EXPECT_LT(outcomes[0].staticInjections, outcomes[2].staticInjections);
    EXPECT_EQ(reference.skipReasons.at("quarantined"), 4u);

    const auto aggregated =
        engine.aggregateDelayAvf(structure, config, outcomes);
    ASSERT_TRUE(aggregated.has_value());
    expectSameResult(reference, *aggregated);
    DelayAvfProgress all;
    all.completed = outcomes;
    expectSameResult(reference,
                     engine.delayAvf(structure, 0.6, config, &all));
}

TEST(Aggregation, QuarantineInEveryCycleFallsBackToSta)
{
    const auto circuit = test::makeRandomCircuit(622, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 4;
    config.threads = 2;
    const std::vector<uint64_t> cycles = engine.injectionCycles(config);
    const std::vector<WireId> wires =
        engine.sampledWires(structure, config);
    const std::vector<size_t> nonempty =
        staticWireIndices(engine, wires, 0.6);
    ASSERT_FALSE(nonempty.empty());

    const std::vector<size_t> quarantined = {nonempty.front()};
    std::vector<InjectionCycleOutcome> outcomes;
    for (uint64_t cycle : cycles) {
        outcomes.push_back(engine.delayAvfCycle(structure, 0.6, cycle,
                                                config, 0, SIZE_MAX,
                                                quarantined));
    }
    EXPECT_FALSE(
        engine.aggregateDelayAvf(structure, config, outcomes).has_value());

    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::setEnabled(true);
    DelayAvfProgress all;
    all.completed = outcomes;
    const DelayAvfResult fallback =
        engine.delayAvf(structure, 0.6, config, &all);
    EXPECT_EQ(staFallbacks(), 1u);
    obs::MetricsRegistry::setEnabled(false);
    obs::MetricsRegistry::instance().reset();

    // The fallback's static fraction is the STA filter's, as in a cold
    // run; every other field aggregates the quarantined outcomes.
    const DelayAvfResult cold = engine.delayAvf(structure, 0.6, config);
    EXPECT_EQ(fallback.staticWireFraction, cold.staticWireFraction);
    EXPECT_EQ(fallback.staticWireFraction,
              static_cast<double>(nonempty.size())
                  / static_cast<double>(wires.size()));
    EXPECT_EQ(fallback.skipReasons.at("quarantined"), cycles.size());
    EXPECT_EQ(fallback.staticInjections + cycles.size(),
              cold.staticInjections);
    EXPECT_FALSE(fallback.stopped);
}

TEST(Aggregation, StoppedCellMatchesStaBackedRun)
{
    const auto circuit = test::makeRandomCircuit(623, 10, 70, 16);
    VulnerabilityEngine engine(*circuit.netlist,
                               CellLibrary::defaultLibrary(),
                               *circuit.workload);
    StructureRegistry registry(*circuit.netlist);
    const Structure &structure = registry.add("Rnd", "rnd/");

    // One thread runs cycles in schedule order; stopping after the
    // first leaves a stopped cell with exactly one completed outcome.
    std::atomic<bool> stop{false};
    SamplingConfig config;
    config.cycleFraction = 0.3;
    config.maxInjectionCycles = 4;
    config.threads = 1;
    config.stopFlag = &stop;
    DelayAvfProgress progress;
    progress.onCycleDone = [&](const InjectionCycleOutcome &) {
        stop = true;
    };
    const DelayAvfResult stopped =
        engine.delayAvf(structure, 0.6, config, &progress);
    ASSERT_TRUE(stopped.stopped);
    ASSERT_EQ(progress.completed.size(), 1u);

    const auto aggregated =
        engine.aggregateDelayAvf(structure, config, progress.completed);
    ASSERT_TRUE(aggregated.has_value());
    expectSameResult(stopped, *aggregated);

    // A stopped cell whose only outcome quarantined a static wire needs
    // the STA filter.
    const std::vector<size_t> nonempty = staticWireIndices(
        engine, engine.sampledWires(structure, config), 0.6);
    ASSERT_FALSE(nonempty.empty());
    SamplingConfig unstopped = config;
    unstopped.stopFlag = nullptr;
    const std::vector<size_t> quarantined = {nonempty.front()};
    const std::vector<InjectionCycleOutcome> skipped = {
        engine.delayAvfCycle(structure, 0.6,
                             progress.completed.front().cycle, unstopped,
                             0, SIZE_MAX, quarantined)};
    EXPECT_FALSE(
        engine.aggregateDelayAvf(structure, config, skipped).has_value());
    EXPECT_FALSE(engine.aggregateDelayAvf(structure, config, {}).has_value());
}

/// @}
/**
 * @name Convergence-pruning correctness
 *
 * The early-exit (a continuation whose full state re-converges with
 * the golden trajectory is settled non-ACE immediately) is exact; these
 * tests pin both directions — a fault that provably re-converges, one
 * that stays architecturally latent for many cycles before corrupting
 * late output — and fuzz the pruned verdict against an unpruned
 * reference continuation.
 */
/// @{

TEST(VectorConvergence, SelfClearingFaultIsNeverAce)
{
    // Flop A reloads constant 0 every edge and its cone is squashed by
    // an AND-0 before reaching anything observable: any flip of A is
    // gone from the full sequential state one edge later, so the
    // convergence early-exit settles it as None — in both paths.
    Netlist nl;
    ModuleBuilder b(nl);
    b.pushScope("sc");
    const NetId zero = b.constant(false);
    const NetId one = b.constant(true);
    const NetId qa = b.dff(zero, false, "a");
    const NetId masked = b.and2(qa, zero);
    const NetId qb = b.dff(masked, false, "b");
    const CellId sink = nl.addBehavioral(
        "sc/sink", std::make_shared<TraceSinkModel>(1), {{qb, one}}, {});
    b.popScope();
    nl.finalize();
    TraceWorkload workload(sink, 12);

    VulnerabilityEngine engine(nl, CellLibrary::defaultLibrary(),
                               workload);
    Structure structure;
    structure.name = "a";
    structure.flops = {nl.flopStateElem(nl.net(qa).driver)};

    SamplingConfig config;
    config.maxInjectionCycles = 4;
    config.threads = 1;

    engine.setVectorMode(false);
    const SavfResult scalar = engine.savf(structure, config);
    engine.setVectorMode(true);
    const SavfResult vec = engine.savf(structure, config);

    EXPECT_GT(scalar.injections, 0u);
    EXPECT_EQ(scalar.aceInjections, 0u);
    EXPECT_DOUBLE_EQ(scalar.savf, 0.0);
    EXPECT_EQ(savfJson("sc", "a", scalar), savfJson("sc", "a", vec));

    // Same through the edge-forcing mechanism.
    const CycleSimulator::Force wrong[] = {
        {nl.flopStateElem(nl.net(qa).driver), true}};
    EXPECT_EQ(engine.groupVerdict(wrong, 3), FailureKind::None);
}

TEST(VectorConvergence, LatentFaultCorruptingLateOutputIsSdc)
{
    // A 4-deep shift register fed constant 0, observed only at the
    // tail: a head flip stays architecturally latent for 4 cycles (the
    // state never re-converges, so early-exit must not fire) and then
    // corrupts the output — silent late SDC, identical in both paths.
    Netlist nl;
    ModuleBuilder b(nl);
    b.pushScope("sh");
    const NetId zero = b.constant(false);
    const NetId one = b.constant(true);
    NetId stage = b.dff(zero, false, "s0");
    const NetId head = stage;
    for (int i = 1; i < 4; ++i)
        stage = b.dff(stage, false, "s" + std::to_string(i));
    const CellId sink = nl.addBehavioral(
        "sh/sink", std::make_shared<TraceSinkModel>(1), {{stage, one}},
        {});
    b.popScope();
    nl.finalize();
    TraceWorkload workload(sink, 16);

    VulnerabilityEngine engine(nl, CellLibrary::defaultLibrary(),
                               workload);
    const StateElemId head_elem = nl.flopStateElem(nl.net(head).driver);
    Structure structure;
    structure.name = "head";
    structure.flops = {head_elem};

    SamplingConfig config;
    config.maxInjectionCycles = 3;
    config.threads = 1;

    engine.setVectorMode(false);
    const SavfResult scalar = engine.savf(structure, config);
    engine.setVectorMode(true);
    const SavfResult vec = engine.savf(structure, config);

    EXPECT_GT(scalar.aceInjections, 0u);
    EXPECT_EQ(scalar.sdc, scalar.aceInjections);
    EXPECT_EQ(savfJson("sh", "head", scalar),
              savfJson("sh", "head", vec));

    // A forced wrong head value early in the run is a guaranteed
    // (delayed) SDC: the trace prefix matches for 4 more cycles first.
    const CycleSimulator::Force wrong[] = {{head_elem, true}};
    EXPECT_EQ(engine.groupVerdict(wrong, 2), FailureKind::Sdc);
}

class ConvergenceFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ConvergenceFuzz, EarlyExitNeverFlipsAVerdict)
{
    // Unpruned reference: run the faulty continuation to workload
    // completion with no convergence check and classify by comparing
    // the final trace — the definitionally correct verdict. The
    // engine's pruned continuation must always agree.
    const auto circuit = test::makeRandomCircuit(GetParam() + 600, 8,
                                                 50, 12);
    const Netlist &nl = *circuit.netlist;
    VulnerabilityEngine engine(nl, CellLibrary::defaultLibrary(),
                               *circuit.workload);
    const uint64_t golden_cycles = engine.goldenCycles();
    const std::vector<uint32_t> &golden_out = engine.goldenOutput();
    const auto &flops = circuit.flops;

    Rng rng(GetParam() * 65537 + 11);
    for (int trial = 0; trial < 16; ++trial) {
        const uint64_t cycle = 1 + rng.below(golden_cycles - 1);
        std::vector<CycleSimulator::Force> forces;
        forces.push_back(
            {flops[rng.below(flops.size())], rng.chance(0.5)});
        if (rng.chance(0.5)) {
            forces.push_back(
                {flops[rng.below(flops.size())], rng.chance(0.5)});
        }

        CycleSimulator sim(nl);
        for (uint64_t i = 0; i < cycle; ++i)
            sim.step();
        sim.step(forces);
        while (!circuit.workload->done(sim))
            sim.step();
        const FailureKind reference =
            circuit.workload->outputTrace(sim) == golden_out
                ? FailureKind::None
                : FailureKind::Sdc;

        EXPECT_EQ(engine.groupVerdict(forces, cycle), reference)
            << "seed " << GetParam() << " cycle " << cycle;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceFuzz,
                         ::testing::Range<uint64_t>(1, 7));

/// @}

TEST(Engine, GoldenFactsOnIbexMini)
{
    const BenchmarkProgram &program = beebsBenchmark("libstrstr");
    IbexMini soc({}, assemble(program.source));
    SocWorkload workload(soc);
    VulnerabilityEngine engine(soc.netlist(),
                               CellLibrary::defaultLibrary(), workload);
    EXPECT_GT(engine.clockPeriod(), 0.0);
    EXPECT_GT(engine.goldenCycles(), 100u);
    EXPECT_EQ(engine.goldenOutput(), program.expectedOutput);
}

} // namespace
} // namespace davf
