/**
 * @file
 * Tests for the timing-aware single-cycle simulator:
 *
 *  - fault-free timed latching equals timing-agnostic latching (the
 *    design meets timing at the nominal period, so the two simulators
 *    must agree — this is what makes the two-step method exact);
 *  - every transition respects the STA arrival bound;
 *  - the four Figure-2 scenarios: a small delay is absorbed by slack, a
 *    large delay mis-latches, logical masking suppresses the error, and
 *    a non-toggling wire cannot err.
 */

#include <gtest/gtest.h>

#include "src/builder/builder.hh"
#include "src/sim/cycle_sim.hh"
#include "src/tsim/timed_sim.hh"
#include "tests/helpers.hh"

namespace davf {
namespace {

/** Run an untimed sim to cycle k-1 and build the timed-sim operands. */
struct CyclePrep
{
    std::vector<uint8_t> preEdge;
    std::vector<uint8_t> postEdge;
    std::vector<uint8_t> goldenSampled;
};

CyclePrep
prepCycle(const Netlist &nl, uint64_t cycle)
{
    CycleSimulator sim(nl);
    for (uint64_t i = 0; i + 1 < cycle; ++i)
        sim.step();
    CyclePrep prep;
    prep.preEdge = sim.netValues_();
    sim.step();
    prep.postEdge = sim.netValues_();
    sim.step({}, &prep.goldenSampled);
    return prep;
}

TEST(TimedSim, FaultFreeLatchingMatchesUntimed)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        const auto circuit = test::makeRandomCircuit(seed, 12, 90);
        const Netlist &nl = *circuit.netlist;
        DelayModel delays(nl, CellLibrary::defaultLibrary());
        Sta sta(delays);
        TimedSimulator tsim(delays);
        const double period = sta.maxPath();

        for (uint64_t cycle : {1, 3, 7}) {
            const CyclePrep prep = prepCycle(nl, cycle);
            CycleWaveforms wf;
            tsim.simulateCycle(prep.preEdge, prep.postEdge, period, wf);

            // Every sampled pin must latch exactly the value the
            // untimed simulator settles on.
            for (CellId id = 0; id < nl.numCells(); ++id) {
                const Cell &cell = nl.cell(id);
                const bool endpoint = cell.type == CellType::Dff
                    || cell.type == CellType::Dffe
                    || cell.type == CellType::Behav
                    || cell.type == CellType::Output;
                if (!endpoint)
                    continue;
                for (uint16_t pin = 0; pin < cell.inputs.size(); ++pin) {
                    const bool timed = goldenPinValueAtEdge(
                        delays, wf, id, pin, period);
                    const bool untimed =
                        prep.postEdge[cell.inputs[pin]] != 0;
                    EXPECT_EQ(timed, untimed)
                        << "seed " << seed << " cycle " << cycle
                        << " cell " << cell.name << " pin " << pin;
                }
            }
        }
    }
}

TEST(TimedSim, EventsRespectStaArrivalBound)
{
    const auto circuit = test::makeRandomCircuit(42, 14, 110);
    const Netlist &nl = *circuit.netlist;
    DelayModel delays(nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    TimedSimulator tsim(delays);
    const double period = sta.maxPath();

    const CyclePrep prep = prepCycle(nl, 4);
    CycleWaveforms wf;
    tsim.simulateCycle(prep.preEdge, prep.postEdge, period, wf);

    for (NetId net = 0; net < nl.numNets(); ++net) {
        for (const NetEvent &event : wf.netEvents[net]) {
            EXPECT_LE(event.time, sta.arrival(net) + 1e-9)
                << "net " << nl.net(net).name;
        }
    }
}

TEST(TimedSim, WaveformEndsAtSettledValue)
{
    const auto circuit = test::makeRandomCircuit(43, 12, 80);
    const Netlist &nl = *circuit.netlist;
    DelayModel delays(nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    TimedSimulator tsim(delays);

    const CyclePrep prep = prepCycle(nl, 3);
    CycleWaveforms wf;
    tsim.simulateCycle(prep.preEdge, prep.postEdge, sta.maxPath(), wf);

    for (NetId net = 0; net < nl.numNets(); ++net) {
        const bool last = wf.netEvents[net].empty()
            ? wf.preEdge[net] != 0
            : wf.netEvents[net].back().value;
        EXPECT_EQ(last, prep.postEdge[net] != 0)
            << "net " << nl.net(net).name;
    }
}

/**
 * Figure 2 fixture: a toggling flop x, a holder flop y, AND(x, y) -> A.
 * Also an INV arm off x with timing slack.
 */
class Fig2Timing : public ::testing::Test
{
  protected:
    Netlist nl;
    NetId x_q = kInvalidId, y_q = kInvalidId;
    CellId ff_a = kInvalidId, ff_inv = kInvalidId;
    WireId w_x_and = kInvalidId, w_x_inv = kInvalidId;
    bool y_value = true;

    std::unique_ptr<DelayModel> delays;
    std::unique_ptr<Sta> sta;
    std::unique_ptr<TimedSimulator> tsim;
    double period = 0.0;

    void
    buildWith(bool y_reset)
    {
        y_value = y_reset;
        ModuleBuilder b(nl);
        // x toggles every cycle.
        const NetId xd = b.freshNet("xd");
        x_q = b.dff(xd, false, "ffx");
        b.connect(xd, b.inv(x_q));
        // y holds its reset value forever.
        const NetId yd = b.freshNet("yd");
        y_q = b.dff(yd, y_reset, "ffy");
        b.connect(yd, b.buf(y_q));

        const NetId and_out = b.and2(x_q, y_q);
        const NetId qa = b.dff(and_out, false, "ffa");
        (void)qa;
        ff_a = nl.net(qa).driver;

        // Slack arm: x -> INV -> flop (shorter than the AND path).
        const NetId inv_out = b.inv(x_q);
        const NetId qi = b.dff(inv_out, false, "ffi");
        ff_inv = nl.net(qi).driver;
        nl.finalize();

        // Locate the wires from x to the AND and to the slack INV.
        const Net &xnet = nl.net(x_q);
        for (uint32_t s = 0; s < xnet.sinks.size(); ++s) {
            const CellType type = nl.cell(xnet.sinks[s].cell).type;
            if (type == CellType::And2)
                w_x_and = xnet.firstWire + s;
        }
        ASSERT_NE(w_x_and, kInvalidId);

        delays = std::make_unique<DelayModel>(
            nl, CellLibrary::defaultLibrary());
        sta = std::make_unique<Sta>(*delays);
        tsim = std::make_unique<TimedSimulator>(*delays);
        period = sta->maxPath();
    }

    /** Latched value of ff_a's D pin with delay d on x->AND, cycle 2. */
    std::optional<bool>
    faultyLatchA(double d)
    {
        const CyclePrep prep = prepCycle(nl, 2);
        CycleWaveforms wf;
        tsim->simulateCycle(prep.preEdge, prep.postEdge, period, wf);
        std::vector<LatchedPin> latched;
        tsim->simulateCone(wf, w_x_and, d, period, latched);
        for (const LatchedPin &pin : latched) {
            if (pin.cell == ff_a && pin.pin == 0)
                return pin.value;
        }
        return std::nullopt;
    }

    bool
    goldenLatchA()
    {
        const CyclePrep prep = prepCycle(nl, 2);
        return prep.goldenSampled[nl.flopStateElem(ff_a)] != 0;
    }
};

TEST_F(Fig2Timing, LargeDelayMislatches)
{
    buildWith(true); // y = 1: no masking.
    const auto faulty = faultyLatchA(0.5 * period);
    ASSERT_TRUE(faulty.has_value());
    EXPECT_NE(*faulty, goldenLatchA()); // Fig. 2b: state element error.
}

TEST_F(Fig2Timing, SmallDelayAbsorbed)
{
    buildWith(true);
    // x -> AND -> A is the critical path (period == its length); the
    // *slack* on it is zero, so use the slack arm instead: delay on
    // x -> AND small enough... here "small" must be ~0.
    const auto faulty = faultyLatchA(0.0);
    ASSERT_TRUE(faulty.has_value());
    EXPECT_EQ(*faulty, goldenLatchA()); // Fig. 2a: arrives in time.
}

TEST_F(Fig2Timing, SlackArmAbsorbsSmallDelay)
{
    buildWith(true);
    // The INV arm has real slack: its path is shorter than the period.
    const Net &xnet = nl.net(x_q);
    for (uint32_t s = 0; s < xnet.sinks.size(); ++s) {
        const Cell &sink_cell = nl.cell(xnet.sinks[s].cell);
        if (sink_cell.type == CellType::Inv
            && sink_cell.name.find("inv") != std::string::npos) {
            w_x_inv = xnet.firstWire + s;
        }
    }
    // Fall back: any INV sink of x (the toggler feedback INV also
    // qualifies; both have slack).
    ASSERT_NE(w_x_inv, kInvalidId);

    std::vector<StateElemId> reachable;
    const double slack_probe = 1.0; // 1 ps: below the arm's slack.
    sta->staticallyReachable(w_x_inv, slack_probe, period, reachable);
    EXPECT_TRUE(reachable.empty()); // Fig. 2a by STA.
}

TEST_F(Fig2Timing, LogicalMaskingSuppressesError)
{
    buildWith(false); // y = 0: AND output pinned at 0.
    // Statically the endpoint is reachable...
    std::vector<StateElemId> reachable;
    sta->staticallyReachable(w_x_and, 0.5 * period, period, reachable);
    EXPECT_FALSE(reachable.empty());
    // ...but dynamically the latched value is correct (Fig. 2c).
    const auto faulty = faultyLatchA(0.5 * period);
    if (faulty.has_value())
        EXPECT_EQ(*faulty, goldenLatchA());
}

TEST_F(Fig2Timing, NonTogglingWireCannotErr)
{
    buildWith(true);
    // The y -> AND wire never toggles (Fig. 2d): the golden waveform of
    // y's net is empty, so the delay shifts nothing.
    const CyclePrep prep = prepCycle(nl, 2);
    CycleWaveforms wf;
    tsim->simulateCycle(prep.preEdge, prep.postEdge, period, wf);
    EXPECT_TRUE(wf.netEvents[y_q].empty());

    const Net &ynet = nl.net(y_q);
    WireId w_y_and = kInvalidId;
    for (uint32_t s = 0; s < ynet.sinks.size(); ++s) {
        if (nl.cell(ynet.sinks[s].cell).type == CellType::And2)
            w_y_and = ynet.firstWire + s;
    }
    ASSERT_NE(w_y_and, kInvalidId);

    std::vector<LatchedPin> latched;
    tsim->simulateCone(wf, w_y_and, 0.9 * period, period, latched);
    const bool golden = goldenLatchA();
    for (const LatchedPin &pin : latched) {
        if (pin.cell == ff_a)
            EXPECT_EQ(pin.value, golden);
    }
}

TEST(TimedSim, DelayedEnableCorruptsDffe)
{
    // A DFFE whose *enable* path carries the SDF: if the enable's
    // rising edge arrives after the clock edge, the flop holds its old
    // value instead of capturing D — an error mechanism unique to
    // enable-gated state (write ports, FIFO pushes).
    Netlist nl;
    ModuleBuilder b(nl);
    // A 2-bit counter: c0 = the enable (toggles every cycle), c1 = the
    // data (toggles every two cycles). In cycle 3 (c = 11) the enable
    // rises 0 -> 1 and the flop captures D = 1 over its old value 0.
    const NetId c0_d = b.freshNet("c0_d");
    const NetId c0 = b.dff(c0_d, false, "c0");
    b.connect(c0_d, b.inv(c0));
    const NetId c1_d = b.freshNet("c1_d");
    const NetId c1 = b.dff(c1_d, false, "c1");
    b.connect(c1_d, b.xor2(c1, c0));

    const NetId en_buffered = b.buf(c0);
    const NetId q = b.dffe(c1, en_buffered, false, "victim");
    b.output("o", q);
    nl.finalize();

    DelayModel delays(nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    TimedSimulator tsim(delays);
    const double period = sta.maxPath();

    const CyclePrep prep = prepCycle(nl, 3);
    CellId victim_cell = kInvalidId;
    for (CellId id = 0; id < nl.numCells(); ++id) {
        if (nl.cell(id).name.starts_with("victim"))
            victim_cell = id;
    }
    ASSERT_NE(victim_cell, kInvalidId);
    const StateElemId elem = nl.flopStateElem(victim_cell);
    // Golden: enable high, captures D = 1; the old Q was 0.
    ASSERT_EQ(prep.goldenSampled[elem], 1);
    ASSERT_EQ(prep.postEdge[nl.cell(victim_cell).outputs[0]], 0);

    // Delay the buf -> EN wire: the enable's rising edge misses the
    // clock, the stale 0 is sampled, and the flop holds its old 0.
    const WireId en_wire = nl.inputWire(victim_cell, 1);
    CycleWaveforms wf;
    tsim.simulateCycle(prep.preEdge, prep.postEdge, period, wf);
    std::vector<LatchedPin> latched;
    tsim.simulateCone(wf, en_wire, 0.9 * period, period, latched);

    bool found = false;
    for (const LatchedPin &pin : latched) {
        if (pin.cell == victim_cell && pin.pin == 1) {
            EXPECT_FALSE(pin.value); // EN arrives late: stale 0.
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(TimedSim, SortEventsRestoresReplayInvariant)
{
    // Replay consumers stop scanning a net's events at the first
    // arrival past the clock edge, which is only sound because
    // CycleWaveforms keeps per-net events sorted by time. A hand-built
    // waveform with deliberately scrambled events must, after
    // sortEvents(), replay exactly like the simulator-produced one.
    for (uint64_t seed = 61; seed <= 63; ++seed) {
        const auto circuit = test::makeRandomCircuit(seed, 12, 90);
        const Netlist &nl = *circuit.netlist;
        DelayModel delays(nl, CellLibrary::defaultLibrary());
        Sta sta(delays);
        TimedSimulator tsim(delays);
        const double period = sta.maxPath();
        const CyclePrep prep = prepCycle(nl, 3);
        CycleWaveforms wf;
        tsim.simulateCycle(prep.preEdge, prep.postEdge, period, wf);

        // Scramble: reverse every multi-event net and rotate the odd
        // ones, so most lists violate the sorted invariant.
        CycleWaveforms scrambled = wf;
        for (NetId net = 0; net < nl.numNets(); ++net) {
            auto &events = scrambled.netEvents[net];
            std::reverse(events.begin(), events.end());
            if (net % 2 == 1 && events.size() > 2)
                std::rotate(events.begin(), events.begin() + 1,
                            events.end());
        }
        scrambled.sortEvents();

        Rng rng(seed);
        std::vector<LatchedPin> expect, got;
        for (int trial = 0; trial < 12; ++trial) {
            const WireId wire = rng.below(nl.numWires());
            const double d = rng.uniform() * period;
            tsim.simulateCone(wf, wire, d, period, expect);
            tsim.simulateCone(scrambled, wire, d, period, got);
            ASSERT_EQ(expect.size(), got.size());
            for (size_t p = 0; p < expect.size(); ++p) {
                EXPECT_EQ(expect[p].cell, got[p].cell);
                EXPECT_EQ(expect[p].pin, got[p].pin);
                EXPECT_EQ(expect[p].value, got[p].value)
                    << "seed " << seed << " wire " << wire << " d "
                    << d;
            }
        }
        for (CellId id = 0; id < nl.numCells(); ++id) {
            const Cell &cell = nl.cell(id);
            if (cell.type != CellType::Dff
                && cell.type != CellType::Dffe) {
                continue;
            }
            for (uint16_t pin = 0; pin < cell.inputs.size(); ++pin) {
                EXPECT_EQ(goldenPinValueAtEdge(delays, wf, id, pin,
                                               period),
                          goldenPinValueAtEdge(delays, scrambled, id,
                                               pin, period));
            }
        }
    }
}

void
expectSameWaveforms(const CycleWaveforms &a, const CycleWaveforms &b)
{
    EXPECT_EQ(a.preEdge, b.preEdge);
    ASSERT_EQ(a.netEvents.size(), b.netEvents.size());
    for (size_t net = 0; net < a.netEvents.size(); ++net) {
        ASSERT_EQ(a.netEvents[net].size(), b.netEvents[net].size())
            << "net " << net;
        for (size_t e = 0; e < a.netEvents[net].size(); ++e) {
            EXPECT_EQ(a.netEvents[net][e].time, b.netEvents[net][e].time);
            EXPECT_EQ(a.netEvents[net][e].value,
                      b.netEvents[net][e].value);
        }
    }
}

TEST(TimedSim, ArrivalOnlyMatchesWaveformScanBitExact)
{
    // The arrival-only kernel must reproduce, to the last bit, the
    // endpoint scan over the full simulation's recorded waveforms, on
    // every cycle of a long run (quiet and busy cycles alike).
    for (uint64_t seed = 71; seed <= 76; ++seed) {
        const auto circuit = test::makeRandomCircuit(seed, 12, 90, 0, 3);
        const Netlist &nl = *circuit.netlist;
        DelayModel delays(nl, CellLibrary::defaultLibrary());
        Sta sta(delays);
        TimedSimulator tsim(delays);
        const double period = sta.maxPath();

        CycleSimulator sim(nl);
        Rng stimulus(seed);
        CycleWaveforms wf;
        unsigned active = 0;
        for (int cycle = 0; cycle < 60; ++cycle) {
            for (NetId in : circuit.inputs)
                sim.setInput(in, stimulus.chance(0.5));
            const std::vector<uint8_t> pre = sim.netValues_();
            sim.step();
            const std::vector<uint8_t> &post = sim.netValues_();
            tsim.simulateCycle(pre, post, period, wf);
            const double expect = test::scanEndpointArrival(delays, wf);
            EXPECT_EQ(tsim.maxEndpointArrival(pre, post), expect)
                << "seed " << seed << " cycle " << cycle;
            active += expect > 0.0;
        }
        EXPECT_GT(active, 0u) << "seed " << seed;
    }
}

TEST(TimedSim, ReusedWaveformsMatchFresh)
{
    // simulateCycle keeps its per-net buffers across calls; a reused
    // CycleWaveforms must carry nothing over from the previous cycle.
    const auto circuit = test::makeRandomCircuit(77, 12, 90);
    const Netlist &nl = *circuit.netlist;
    DelayModel delays(nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    TimedSimulator tsim(delays);
    const double period = sta.maxPath();

    CycleWaveforms reused;
    for (uint64_t cycle : {5, 2, 2, 9}) {
        const CyclePrep prep = prepCycle(nl, cycle);
        tsim.simulateCycle(prep.preEdge, prep.postEdge, period, reused);
        CycleWaveforms fresh;
        tsim.simulateCycle(prep.preEdge, prep.postEdge, period, fresh);
        expectSameWaveforms(reused, fresh);
    }
}

TEST(TimedSim, ConeAgreesWithFullSimUnderFault)
{
    // Cross-check simulateCone against a full-netlist timed simulation
    // with the fault baked into a modified delay model.
    for (uint64_t seed = 21; seed <= 24; ++seed) {
        const auto circuit = test::makeRandomCircuit(seed, 10, 70);
        const Netlist &nl = *circuit.netlist;
        DelayModel delays(nl, CellLibrary::defaultLibrary());
        Sta sta(delays);
        TimedSimulator tsim(delays);
        const double period = sta.maxPath();
        const CyclePrep prep = prepCycle(nl, 3);
        CycleWaveforms wf;
        tsim.simulateCycle(prep.preEdge, prep.postEdge, period, wf);

        Rng rng(seed);
        for (int trial = 0; trial < 10; ++trial) {
            const WireId wire = rng.below(nl.numWires());
            const double d = (0.1 + 0.8 * rng.uniform()) * period;

            std::vector<LatchedPin> cone_latched;
            tsim.simulateCone(wf, wire, d, period, cone_latched);

            DelayModel faulty = delays;
            faulty.addExtraWireDelay(wire, d);
            TimedSimulator full(faulty);
            CycleWaveforms faulty_wf;
            full.simulateCycle(prep.preEdge, prep.postEdge, period,
                               faulty_wf);

            for (const LatchedPin &pin : cone_latched) {
                const bool full_value = goldenPinValueAtEdge(
                    faulty, faulty_wf, pin.cell, pin.pin, period);
                EXPECT_EQ(pin.value, full_value)
                    << "seed " << seed << " wire " << wire << " d " << d;
            }
        }
    }
}

} // namespace
} // namespace davf
