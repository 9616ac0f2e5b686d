/**
 * @file
 * Shared test fixtures: a seeded random sequential-circuit generator used
 * by the property tests (STA bounds, timed-vs-untimed equivalence, and
 * the two-step-vs-brute-force DelayACE exactness check), a path
 * enumeration the STA cone DP is checked against, and plain per-wire /
 * per-flip reference loops the engine's batched path is checked
 * against.
 */

#ifndef DAVF_TESTS_HELPERS_HH
#define DAVF_TESTS_HELPERS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "builder/builder.hh"
#include "core/vulnerability.hh"
#include "core/workload.hh"
#include "netlist/netlist.hh"
#include "timing/sta.hh"
#include "tsim/timed_sim.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace davf::test {

/** A randomly generated clocked circuit with an attached trace sink. */
struct RandomCircuit
{
    std::unique_ptr<Netlist> netlist;
    CellId sinkCell = kInvalidId;
    uint64_t numCycles = 0;

    /** Primary inputs, when requested (stimulus hooks for sim tests). */
    std::vector<NetId> inputs;

    /** Every flop state element, in netlist order (flip targets). */
    std::vector<StateElemId> flops;

    std::unique_ptr<TraceWorkload> workload;
};

/**
 * Build a random sequential circuit: @p num_flops flops with random
 * reset values, a random combinational cloud of @p num_gates primitive
 * gates (acyclic by construction), random flop feedback, and a trace
 * sink observing a random subset of nets every cycle. All cells carry the
 * prefix "rnd/" so the whole circuit can be treated as one structure.
 * With @p num_inputs > 0, that many primary inputs join the net pool the
 * gate cloud draws from, so tests can drive external stimulus.
 */
inline RandomCircuit
makeRandomCircuit(uint64_t seed, unsigned num_flops = 12,
                  unsigned num_gates = 60, uint64_t num_cycles = 24,
                  unsigned num_inputs = 0)
{
    Rng rng(seed);
    RandomCircuit circuit;
    circuit.netlist = std::make_unique<Netlist>();
    Netlist &nl = *circuit.netlist;
    ModuleBuilder b(nl);
    b.pushScope("rnd");

    // Flop Q nets come first; D inputs are connected at the end.
    std::vector<NetId> nets;
    Bus flop_d;
    for (unsigned i = 0; i < num_flops; ++i) {
        const NetId d = b.freshNet("ffd" + std::to_string(i));
        const NetId q = b.dff(d, rng.chance(0.5),
                              "ff" + std::to_string(i));
        flop_d.push_back(d);
        nets.push_back(q);
    }

    for (unsigned i = 0; i < num_inputs; ++i) {
        const NetId in = b.input("in" + std::to_string(i));
        circuit.inputs.push_back(in);
        nets.push_back(in);
    }

    // Random acyclic combinational cloud.
    const CellType kinds[] = {CellType::Buf,   CellType::Inv,
                              CellType::And2,  CellType::Or2,
                              CellType::Nand2, CellType::Nor2,
                              CellType::Xor2,  CellType::Xnor2,
                              CellType::Mux2};
    for (unsigned i = 0; i < num_gates; ++i) {
        const CellType kind = kinds[rng.below(std::size(kinds))];
        auto pick = [&]() { return nets[rng.below(nets.size())]; };
        NetId out;
        switch (cellNumInputs(kind)) {
          case 1:
            out = kind == CellType::Buf ? b.buf(pick()) : b.inv(pick());
            break;
          case 2: {
            const NetId a = pick();
            const NetId c = pick();
            switch (kind) {
              case CellType::And2:  out = b.and2(a, c); break;
              case CellType::Or2:   out = b.or2(a, c); break;
              case CellType::Nand2: out = b.nand2(a, c); break;
              case CellType::Nor2:  out = b.nor2(a, c); break;
              case CellType::Xor2:  out = b.xor2(a, c); break;
              default:              out = b.xnor2(a, c); break;
            }
            break;
          }
          default:
            out = b.mux(pick(), pick(), pick());
            break;
        }
        nets.push_back(out);
    }

    // Flop feedback from random nets.
    for (unsigned i = 0; i < num_flops; ++i)
        b.connect(flop_d[i], nets[rng.below(nets.size())]);

    // Trace sink observing a random subset of nets (always valid).
    const unsigned watch = 4;
    Bus sink_inputs;
    for (unsigned i = 0; i < watch; ++i)
        sink_inputs.push_back(nets[rng.below(nets.size())]);
    sink_inputs.push_back(b.constant(true));
    circuit.sinkCell = nl.addBehavioral(
        "rnd/sink", std::make_shared<TraceSinkModel>(watch), sink_inputs,
        {});

    b.popScope();
    nl.finalize();

    circuit.flops = nl.flopsByPrefix("rnd/");
    circuit.numCycles = num_cycles;
    circuit.workload = std::make_unique<TraceWorkload>(circuit.sinkCell,
                                                       num_cycles);
    return circuit;
}

/** An engine over @p circuit that batches @p lanes lanes at a time. */
inline std::unique_ptr<VulnerabilityEngine>
makeEngine(const RandomCircuit &circuit, unsigned lanes = 64)
{
    EngineOptions options;
    options.lanes = lanes;
    return std::make_unique<VulnerabilityEngine>(
        *circuit.netlist, CellLibrary::defaultLibrary(), *circuit.workload,
        options);
}

/**
 * Reference for Sta::endpointArrivals(): walks every path from wire
 * @p wire's sink pin to a sampled endpoint, one at a time (no cone DP,
 * no visit marks), summing delays along it, and keeps the longest per
 * state element. Exponential in the cone's reconvergence; small
 * circuits only.
 */
inline std::map<StateElemId, double>
latestArrivalsByPathEnumeration(const Sta &sta, WireId wire)
{
    const DelayModel &delays = sta.delayModel();
    const Netlist &nl = delays.netlist();
    std::map<StateElemId, double> latest;
    auto walk = [&](auto &self, const Sink &sink, double pin_time) -> void {
        const CellType type = nl.cell(sink.cell).type;
        if (type == CellType::Dff || type == CellType::Dffe
            || type == CellType::Behav || type == CellType::Output) {
            const StateElemId elem =
                type == CellType::Dff || type == CellType::Dffe
                ? nl.flopStateElem(sink.cell)
                : nl.pinStateElem(sink.cell, sink.pin);
            const auto [it, fresh] = latest.emplace(elem, pin_time);
            if (!fresh)
                it->second = std::max(it->second, pin_time);
            return;
        }
        if (!cellIsCombinational(type))
            return;
        const double out_time = pin_time + delays.cellDelay(sink.cell);
        const Net &net = nl.net(nl.cell(sink.cell).outputs[0]);
        for (uint32_t s = 0; s < net.sinks.size(); ++s) {
            self(self, net.sinks[s],
                 out_time + delays.wireDelay(net.firstWire + s));
        }
    };
    walk(walk, nl.wireSink(wire),
         sta.arrival(nl.wire(wire).net) + delays.wireDelay(wire));
    return latest;
}

/**
 * Reference for VulnerabilityEngine::delayAvfCycle(): a plain per-wire
 * loop over public API only — sampledWires(), the sta() filter, a golden
 * TimedSimulator waveform for the no-toggle check, dynamicErrors() and
 * groupVerdict() — with plain memo maps and a per-wire try/catch, and
 * no sweep caches or lanes. A continuation that throws is not memoized,
 * so every wire that demands it simulates it again and is skipped with
 * its reason. Ignores SamplingConfig::injectionTimeoutMs and
 * attribution.
 */
inline InjectionCycleOutcome
referenceCycleOutcome(VulnerabilityEngine &engine,
                      const Structure &structure, double delay_fraction,
                      uint64_t cycle, const SamplingConfig &config,
                      size_t wire_begin = 0, size_t wire_end = SIZE_MAX,
                      std::span<const size_t> quarantined = {})
{
    const Netlist &netlist = engine.delayModel().netlist();
    const double period = engine.clockPeriod();
    const double delay = delay_fraction * period;
    const std::vector<WireId> wires = engine.sampledWires(structure, config);

    CycleSimulator golden(netlist);
    while (golden.cycle() + 1 < cycle)
        golden.step();
    const std::vector<uint8_t> pre = golden.netValues_();
    golden.step();
    CycleWaveforms wf;
    TimedSimulator(engine.delayModel())
        .simulateCycle(pre, golden.netValues_(), period, wf);

    InjectionCycleOutcome out;
    out.cycle = cycle;
    out.wireDyn.assign(wires.size(), 0);
    out.wireAce.assign(wires.size(), 0);
    std::map<std::vector<CycleSimulator::Force>, FailureKind> group_memo;
    std::map<CycleSimulator::Force, FailureKind> ace_memo;
    auto verdict_of = [&](std::span<const CycleSimulator::Force> errors) {
        ++out.uniqueGroupSims;
        return engine.groupVerdict(errors, cycle, config.watchdogSlack);
    };
    auto skip = [&](const std::string &reason) {
        ++out.skippedErrors;
        ++out.skipReasons[reason];
    };

    std::vector<StateElemId> static_set;
    for (size_t i = wire_begin; i < std::min(wire_end, wires.size()); ++i) {
        ++out.injections;
        if (std::find(quarantined.begin(), quarantined.end(), i)
            != quarantined.end()) {
            skip("quarantined");
            continue;
        }
        try {
            engine.sta().staticallyReachable(wires[i], delay, period,
                                             static_set);
            if (static_set.empty())
                continue;
            ++out.staticInjections;
            if (wf.netEvents[netlist.wire(wires[i]).net].empty()) {
                ++out.skippedNoToggle;
                continue;
            }
            const std::vector<CycleSimulator::Force> errors =
                engine.dynamicErrors(wires[i], cycle, delay);
            if (errors.empty())
                continue;
            ++out.errorInjections;
            out.wireDyn[i] = 1;
            if (errors.size() >= 2)
                ++out.multiBit;

            auto group = group_memo.find(errors);
            if (group == group_memo.end())
                group = group_memo.emplace(errors, verdict_of(errors)).first;
            const FailureKind verdict = group->second;
            if (verdict != FailureKind::None) {
                ++out.delayAce;
                out.wireAce[i] = 1;
                ++(verdict == FailureKind::Sdc ? out.sdc : out.due);
            }

            bool or_ace = false;
            for (const CycleSimulator::Force &error : errors) {
                auto single = ace_memo.find(error);
                if (single == ace_memo.end()) {
                    single = ace_memo.emplace(error, verdict_of({&error, 1}))
                                 .first;
                }
                if (single->second != FailureKind::None) {
                    or_ace = true;
                    break;
                }
            }
            out.orAce += or_ace;
            out.interference += or_ace && verdict == FailureKind::None;
            out.compounding += !or_ace && verdict != FailureKind::None;
        } catch (const std::bad_alloc &) {
            throw;
        } catch (const DavfError &error) {
            skip(std::string(errorKindName(error.kind())));
        } catch (const std::exception &) {
            skip("exception");
        }
    }
    return out;
}

/** referenceCycleOutcome() for every scheduled cycle, in order. */
inline std::vector<InjectionCycleOutcome>
referenceOutcomes(VulnerabilityEngine &engine, const Structure &structure,
                  double delay_fraction, const SamplingConfig &config)
{
    std::vector<InjectionCycleOutcome> outcomes;
    for (uint64_t cycle : engine.injectionCycles(config)) {
        outcomes.push_back(referenceCycleOutcome(engine, structure,
                                                 delay_fraction, cycle,
                                                 config));
    }
    return outcomes;
}

/**
 * Reference for VulnerabilityEngine::savf() over every flop of
 * @p structure (SamplingConfig::maxFlops must be 0): each flip runs
 * alone on a CycleSimulator, inside a per-flip try/catch, and without
 * the convergence early-exit — output prefix, completion and watchdog
 * checks only, in the engine's order.
 */
inline SavfResult
referenceSavf(const VulnerabilityEngine &engine, const Workload &workload,
              const Structure &structure, const SamplingConfig &config)
{
    const Netlist &netlist = engine.delayModel().netlist();
    const std::vector<uint32_t> &golden = engine.goldenOutput();
    SavfResult result;
    for (uint64_t cycle : engine.injectionCycles(config)) {
        CycleSimulator base(netlist);
        while (base.cycle() < cycle)
            base.step();
        const CycleSimulator::Snapshot at = base.snapshot();
        for (StateElemId flop : structure.flops) {
            ++result.injections;
            try {
                CycleSimulator sim(netlist);
                sim.restore(at);
                sim.flipFlop(flop);
                FailureKind verdict = FailureKind::None;
                for (;; sim.step()) {
                    const std::vector<uint32_t> out =
                        workload.outputTrace(sim);
                    if (out.size() > golden.size()
                        || !std::equal(out.begin(), out.end(),
                                       golden.begin())) {
                        verdict = FailureKind::Sdc;
                        break;
                    }
                    if (workload.done(sim)) {
                        if (out.size() != golden.size())
                            verdict = FailureKind::Sdc;
                        break;
                    }
                    if (sim.cycle()
                        >= engine.goldenCycles() + config.watchdogSlack) {
                        verdict = FailureKind::Due;
                        break;
                    }
                }
                if (verdict != FailureKind::None) {
                    ++result.aceInjections;
                    ++(verdict == FailureKind::Sdc ? result.sdc
                                                   : result.due);
                }
            } catch (const std::bad_alloc &) {
                throw;
            } catch (const std::exception &) {
                ++result.skippedErrors;
            }
        }
    }
    const uint64_t evaluated = result.injections - result.skippedErrors;
    if (evaluated > 0) {
        result.savf = static_cast<double>(result.aceInjections)
            / static_cast<double>(evaluated);
    }
    return result;
}

/**
 * Reference for TimedSimulator::maxEndpointArrival(): the latest arrival
 * at any sampled endpoint pin, scanned from recorded waveforms as each
 * pin's last driver event plus its wire delay.
 */
inline double
scanEndpointArrival(const DelayModel &delays, const CycleWaveforms &wf)
{
    const Netlist &netlist = delays.netlist();
    double worst = 0.0;
    for (CellId id = 0; id < netlist.numCells(); ++id) {
        const Cell &cell = netlist.cell(id);
        const bool endpoint = cell.type == CellType::Dff
            || cell.type == CellType::Dffe || cell.type == CellType::Behav
            || cell.type == CellType::Output;
        if (!endpoint)
            continue;
        for (uint16_t pin = 0; pin < cell.inputs.size(); ++pin) {
            const auto &events = wf.netEvents[cell.inputs[pin]];
            if (events.empty())
                continue;
            const double arrive = events.back().time
                + delays.wireDelay(netlist.inputWire(id, pin));
            worst = std::max(worst, arrive);
        }
    }
    return worst;
}

/**
 * A deterministic, stateless AttributionTap for random circuits, which
 * run no instructions: the "instruction" in flight at cycle c is
 * "op<c % 3>" at pc 4 * (c % 3), and a divergence walk injected at c
 * reports the one in flight at c + 2 (or ends first). Thread-safe.
 */
class CycleAttributionTap : public AttributionTap
{
  public:
    static InFlight
    at(uint64_t cycle)
    {
        return {4 * (cycle % 3), "op" + std::to_string(cycle % 3)};
    }

    InFlight inFlight(uint64_t cycle) override { return at(cycle); }

    Walk
    beginWalk(uint64_t cycle) override
    {
        Walk walk;
        walk.cursor = cycle;
        return walk;
    }

    bool
    observe(Walk &walk, const CycleSimulator &sim) override
    {
        if (sim.cycle() < walk.cursor + 2)
            return false;
        const InFlight site = at(walk.cursor + 2);
        walk.found = true;
        walk.event.pc = site.pc;
        walk.event.mnemonic = site.mnemonic;
        walk.event.dest = "state";
        return true;
    }

    CycleAttribution::Event
    finish(Walk &walk, WalkEnd end) override
    {
        if (walk.found)
            return walk.event;
        const InFlight site = at(walk.cursor);
        CycleAttribution::Event event;
        event.pc = site.pc;
        event.mnemonic = site.mnemonic;
        event.dest = end == WalkEnd::Done ? "out" : "uarch";
        return event;
    }
};

} // namespace davf::test

#endif // DAVF_TESTS_HELPERS_HH
