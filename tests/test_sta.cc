/**
 * @file
 * Tests for static timing analysis: hand-computed arrivals on a tiny
 * pipeline, path queries, statically-reachable-set semantics, and
 * monotonicity and path-enumeration properties on random circuits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/builder/builder.hh"
#include "src/timing/sta.hh"
#include "tests/helpers.hh"

namespace davf {
namespace {

/** ff1 -> INV -> ff2 with the default library. */
struct TinyPipe
{
    Netlist nl;
    NetId q1, inv_out, q2;
    WireId w_q1_inv, w_inv_ff2;

    TinyPipe()
    {
        ModuleBuilder b(nl);
        const NetId d1 = b.input("d1");
        q1 = b.dff(d1);
        inv_out = b.inv(q1);
        q2 = b.dff(inv_out);
        nl.finalize();
        w_q1_inv = nl.net(q1).firstWire;
        w_inv_ff2 = nl.net(inv_out).firstWire;
    }
};

TEST(Sta, HandComputedArrivals)
{
    TinyPipe c;
    const CellLibrary lib = CellLibrary::defaultLibrary();
    DelayModel delays(c.nl, lib);
    Sta sta(delays);

    // q1: DFF output, fanout 1 -> wire = 2 + 4*1 = 6; arrival = clkToQ.
    EXPECT_DOUBLE_EQ(sta.arrival(c.q1), 24.0);
    EXPECT_DOUBLE_EQ(delays.wireDelay(c.w_q1_inv), 6.0);
    // inv_out = 24 + 6 + 8 (INV intrinsic).
    EXPECT_DOUBLE_EQ(sta.arrival(c.inv_out), 38.0);
    // Path ends at ff2.D: 38 + 6 = 44 — the longest path in the design
    // (the d1 input arm is shorter).
    EXPECT_DOUBLE_EQ(sta.maxPath(), 44.0);
}

TEST(Sta, LongestPathThroughWire)
{
    TinyPipe c;
    DelayModel delays(c.nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    EXPECT_DOUBLE_EQ(sta.longestPathThrough(c.w_q1_inv), 44.0);
    EXPECT_DOUBLE_EQ(sta.longestPathThrough(c.w_inv_ff2), 44.0);
}

TEST(Sta, StaticallyReachableThreshold)
{
    TinyPipe c;
    DelayModel delays(c.nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    const double period = sta.maxPath();

    std::vector<StateElemId> reachable;
    // Zero extra delay: the path exactly meets timing, nothing reachable.
    sta.staticallyReachable(c.w_q1_inv, 0.0, period, reachable);
    EXPECT_TRUE(reachable.empty());
    // Any positive delay on the critical wire trips the endpoint.
    sta.staticallyReachable(c.w_q1_inv, 0.5, period, reachable);
    ASSERT_EQ(reachable.size(), 1u);
    EXPECT_EQ(reachable[0],
              c.nl.flopStateElem(c.nl.net(c.q2).driver));
}

TEST(Sta, StaticReachIgnoresLogicalMasking)
{
    // x AND 0 -> ff: statically reachable even though the output can
    // never toggle (§III / Fig. 2c: static analysis has no masking).
    Netlist nl;
    ModuleBuilder b(nl);
    const NetId d = b.freshNet("d");
    const NetId q = b.dff(d);
    b.connect(d, b.inv(q)); // Toggler.
    const NetId zero = b.constant(false);
    const NetId masked = b.and2(q, zero);
    const NetId q2 = b.dff(masked);
    (void)q2;
    nl.finalize();

    DelayModel delays(nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    // Find the wire q -> AND.
    const Net &qnet = nl.net(q);
    WireId wire = kInvalidId;
    for (uint32_t s = 0; s < qnet.sinks.size(); ++s) {
        if (nl.cell(qnet.sinks[s].cell).type == CellType::And2)
            wire = qnet.firstWire + s;
    }
    ASSERT_NE(wire, kInvalidId);

    std::vector<StateElemId> reachable;
    sta.staticallyReachable(wire, 0.9 * sta.maxPath(), sta.maxPath(),
                            reachable);
    EXPECT_FALSE(reachable.empty());
}

TEST(Sta, PathsNeverExceedMaxPath)
{
    const auto circuit = test::makeRandomCircuit(11, 16, 120);
    DelayModel delays(*circuit.netlist, CellLibrary::defaultLibrary());
    Sta sta(delays);
    double best = 0.0;
    for (WireId w = 0; w < circuit.netlist->numWires(); ++w) {
        const double through = sta.longestPathThrough(w);
        EXPECT_LE(through, sta.maxPath() + 1e-9);
        best = std::max(best, through);
    }
    // The critical path passes through at least one wire.
    EXPECT_NEAR(best, sta.maxPath(), 1e-9);
}

class StaRandom : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(StaRandom, ReachableSetGrowsWithDelay)
{
    const auto circuit = test::makeRandomCircuit(GetParam(), 10, 80);
    DelayModel delays(*circuit.netlist, CellLibrary::defaultLibrary());
    Sta sta(delays);
    const double period = sta.maxPath();

    std::vector<StateElemId> small_set, large_set;
    for (WireId w = 0; w < circuit.netlist->numWires(); w += 3) {
        sta.staticallyReachable(w, 0.2 * period, period, small_set);
        sta.staticallyReachable(w, 0.8 * period, period, large_set);
        // Monotone: everything reachable with the small delay is
        // reachable with the large delay (sets are sorted).
        EXPECT_TRUE(std::includes(large_set.begin(), large_set.end(),
                                  small_set.begin(), small_set.end()));
    }
}

TEST_P(StaRandom, ReachableMatchesPathArithmetic)
{
    // For wires that feed an endpoint *directly*, static reachability
    // must equal the simple arithmetic check on that single path.
    const auto circuit = test::makeRandomCircuit(GetParam() + 100, 8, 50);
    const Netlist &nl = *circuit.netlist;
    DelayModel delays(nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    const double period = sta.maxPath();
    const double d = 0.5 * period;

    std::vector<StateElemId> reachable;
    for (WireId w = 0; w < nl.numWires(); ++w) {
        const Sink &sink = nl.wireSink(w);
        const CellType type = nl.cell(sink.cell).type;
        if (type != CellType::Dff && type != CellType::Dffe)
            continue;
        sta.staticallyReachable(w, d, period, reachable);
        const double path =
            sta.arrival(nl.wire(w).net) + delays.wireDelay(w) + d;
        const bool want = path > period + 1e-9;
        const StateElemId elem = nl.flopStateElem(sink.cell);
        const bool got = std::binary_search(reachable.begin(),
                                            reachable.end(), elem);
        EXPECT_EQ(got, want);
    }
}

TEST_P(StaRandom, StaticReachMatchesPathEnumeration)
{
    // Every wire's endpoint table equals an enumeration of every path
    // through it, and the reachable set equals the enumeration's at a
    // delay grid plus each endpoint's exact threshold (excluded) and
    // that threshold plus 2e-9 (included).
    const auto circuit = test::makeRandomCircuit(GetParam() + 200, 8, 40);
    const Netlist &nl = *circuit.netlist;
    DelayModel delays(nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    const double period = sta.maxPath();

    std::vector<StateElemId> got;
    size_t endpoints = 0;
    for (WireId w = 0; w < nl.numWires(); ++w) {
        const std::map<StateElemId, double> paths =
            test::latestArrivalsByPathEnumeration(sta, w);
        const std::vector<Sta::EndpointArrival> table =
            sta.endpointArrivals(w);
        ASSERT_EQ(table.size(), paths.size()) << "wire " << w;
        auto path = paths.begin();
        for (const Sta::EndpointArrival &entry : table) {
            EXPECT_EQ(entry.elem, path->first) << "wire " << w;
            EXPECT_EQ(entry.arrival, path->second) << "wire " << w;
            ++path;
        }
        endpoints += paths.size();

        std::vector<double> probes;
        for (int k = 0; k <= 20; ++k)
            probes.push_back(period * k / 20.0);
        for (const auto &[elem, arrival] : paths) {
            probes.push_back(period - arrival);
            probes.push_back(period - arrival + 2e-9);
        }
        for (double d : probes) {
            std::vector<StateElemId> want;
            for (const auto &[elem, arrival] : paths) {
                if (arrival + d > period + 1e-9)
                    want.push_back(elem);
            }
            sta.staticallyReachable(w, d, period, got);
            EXPECT_EQ(got, want) << "wire " << w << " d " << d;
        }
        for (const auto &[elem, arrival] : paths) {
            sta.staticallyReachable(w, period - arrival, period, got);
            EXPECT_FALSE(std::binary_search(got.begin(), got.end(), elem))
                << "wire " << w << " elem " << elem;
            sta.staticallyReachable(w, period - arrival + 2e-9, period,
                                    got);
            EXPECT_TRUE(std::binary_search(got.begin(), got.end(), elem))
                << "wire " << w << " elem " << elem;
        }
    }
    EXPECT_GT(endpoints, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Sta, DanglingWireHasNoPath)
{
    Netlist nl;
    ModuleBuilder b(nl);
    const NetId in = b.input("in");
    const NetId used = b.inv(in);
    const NetId dangling = b.inv(used); // Feeds nothing.
    (void)dangling;
    const NetId q = b.dff(used);
    (void)q;
    nl.finalize();

    DelayModel delays(nl, CellLibrary::defaultLibrary());
    Sta sta(delays);
    // One of `used`'s two wires leads to the dangling INV.
    bool found_dead = false;
    for (uint32_t s = 0; s < nl.net(used).sinks.size(); ++s) {
        const WireId w = nl.net(used).firstWire + s;
        if (nl.cell(nl.wireSink(w).cell).type == CellType::Inv) {
            EXPECT_DOUBLE_EQ(sta.longestPathThrough(w), 0.0);
            std::vector<StateElemId> reachable;
            sta.staticallyReachable(w, sta.maxPath(), sta.maxPath(),
                                    reachable);
            EXPECT_TRUE(reachable.empty());
            found_dead = true;
        }
    }
    EXPECT_TRUE(found_dead);
}

TEST(DelayModel, WireDelayScalesWithFanout)
{
    Netlist nl;
    ModuleBuilder b(nl);
    const NetId in = b.input("in");
    const NetId one = b.inv(in); // Fanout 1 net: in.
    // Create a high-fanout net.
    const NetId hub = b.inv(one);
    for (int i = 0; i < 7; ++i)
        b.output("o" + std::to_string(i), b.inv(hub));
    nl.finalize();

    DelayModel delays(nl, CellLibrary::defaultLibrary());
    const WireId thin = nl.net(one).firstWire;
    const WireId fat = nl.net(hub).firstWire;
    EXPECT_GT(delays.wireDelay(fat), delays.wireDelay(thin));
}

} // namespace
} // namespace davf
