#include "timed_sim.hh"

#include <algorithm>
#include <queue>

#include "util/logging.hh"

namespace davf {

namespace {

constexpr double kEps = 1e-9;

/** A value arriving at one input pin of a cell. */
struct PinEvent
{
    double time;
    uint64_t sequence;  ///< Tie-break so equal-time processing is stable.
    CellId cell;
    uint16_t pin;
    bool value;
};

struct PinEventLater
{
    bool
    operator()(const PinEvent &a, const PinEvent &b) const
    {
        if (a.time != b.time)
            return a.time > b.time;
        return a.sequence > b.sequence;
    }
};

using EventQueue =
    std::priority_queue<PinEvent, std::vector<PinEvent>, PinEventLater>;

bool
isSourceCell(CellType type)
{
    return cellIsSequential(type) || type == CellType::Input;
}

bool
isEndpointCell(CellType type)
{
    return type == CellType::Dff || type == CellType::Dffe
        || type == CellType::Behav || type == CellType::Output;
}

/** Evaluate a combinational cell from per-pin current values. */
bool
evalFromPins(CellType type, const uint8_t *pins)
{
    return evalCell(type, pins[0] != 0,
                    cellNumInputs(type) > 1 && pins[1] != 0,
                    cellNumInputs(type) > 2 && pins[2] != 0);
}

} // namespace

void
CycleWaveforms::sortEvents()
{
    const auto earlier = [](const NetEvent &a, const NetEvent &b) {
        return a.time < b.time;
    };
    for (std::vector<NetEvent> &events : netEvents) {
        if (!std::is_sorted(events.begin(), events.end(), earlier))
            std::stable_sort(events.begin(), events.end(), earlier);
    }
}

TimedSimulator::TimedSimulator(const DelayModel &delay_model)
    : delays(&delay_model), nl(&delay_model.netlist())
{
}

void
TimedSimulator::simulateCycle(const std::vector<uint8_t> &pre_edge,
                              const std::vector<uint8_t> &post_edge,
                              double period, CycleWaveforms &out) const
{
    (void)period; // No cutoff: see runCycle().
    out.preEdge = pre_edge;
    out.netEvents.resize(nl->numNets());
    for (std::vector<NetEvent> &events : out.netEvents)
        events.clear();
    runCycle(pre_edge, post_edge, &out.netEvents);

    // Establish the sorted-waveform invariant at construction, so every
    // replaying consumer can cut its scan at the clock edge instead of
    // filtering the whole list per call. Emission order is already
    // time-sorted per net (one driver, monotone queue), so this is a
    // verification scan, not a sort.
    out.sortEvents();
}

double
TimedSimulator::maxEndpointArrival(const std::vector<uint8_t> &pre_edge,
                                   const std::vector<uint8_t> &post_edge)
    const
{
    return runCycle(pre_edge, post_edge, nullptr);
}

double
TimedSimulator::runCycle(const std::vector<uint8_t> &pre_edge,
                         const std::vector<uint8_t> &post_edge,
                         std::vector<std::vector<NetEvent>> *net_events)
    const
{
    const Netlist &netlist = *nl;
    davf_assert(pre_edge.size() == netlist.numNets()
                    && post_edge.size() == netlist.numNets(),
                "net value vector size mismatch");

    // Current value at every input pin (indexed by the pin's WireId) and
    // per-net last scheduled waveform value.
    std::vector<uint8_t> pin_vals(netlist.numWires());
    for (WireId wire = 0; wire < netlist.numWires(); ++wire)
        pin_vals[wire] = pre_edge[netlist.wire(wire).net];
    std::vector<uint8_t> sched = pre_edge;

    // One up-front allocation sized to cover the queue's peak (~3k
    // events for ~9.8k nets on the core): growing by doubling would
    // leave every smaller buffer behind in the malloc arena of each
    // golden-pass worker thread, all resident at once.
    std::vector<PinEvent> storage;
    storage.reserve(netlist.numNets() / 2);
    EventQueue queue(PinEventLater{}, std::move(storage));
    uint64_t sequence = 0;

    // Note: no clock-period cutoff here. Nets on dangling combinational
    // paths (which do not constrain the period) legitimately settle
    // after the edge, and the golden waveforms must end at the settled
    // values; consumers apply their own at-the-edge filtering.
    auto emit_net_event = [&](NetId net, double time, bool value) {
        if (net_events)
            (*net_events)[net].push_back({time, value});
        const Net &net_ref = netlist.net(net);
        for (uint32_t s = 0; s < net_ref.sinks.size(); ++s) {
            const Sink &sink = net_ref.sinks[s];
            const double arrive =
                time + delays->wireDelay(net_ref.firstWire + s);
            queue.push({arrive, sequence++, sink.cell, sink.pin,
                        value});
        }
    };

    // Sources transition to their post-edge values at clkToQ.
    for (NetId id = 0; id < netlist.numNets(); ++id) {
        const CellType driver = netlist.cell(netlist.net(id).driver).type;
        if (isSourceCell(driver) && post_edge[id] != pre_edge[id]) {
            sched[id] = post_edge[id];
            emit_net_event(id, delays->clkToQ(), post_edge[id] != 0);
        }
    }

    double latest_endpoint = 0.0;
    while (!queue.empty()) {
        const PinEvent event = queue.top();
        queue.pop();
        const Cell &cell = netlist.cell(event.cell);
        if (!cellIsCombinational(cell.type)) {
            // Endpoint pin: every pushed event is popped here with the
            // time (event time + wire delay) it was pushed with. A pin's
            // events are its driver's waveform shifted by one wire
            // delay, and fl(t + w) is monotone in t, so this running
            // max equals the last-event-per-pin scan over the recorded
            // waveforms bit for bit.
            if (isEndpointCell(cell.type))
                latest_endpoint = std::max(latest_endpoint, event.time);
            continue;
        }
        pin_vals[netlist.inputWire(event.cell, event.pin)] =
            event.value ? 1 : 0;
        uint8_t pins[3] = {0, 0, 0};
        for (uint16_t pin = 0; pin < cell.inputs.size(); ++pin)
            pins[pin] = pin_vals[netlist.inputWire(event.cell, pin)];
        const bool new_out = evalFromPins(cell.type, pins);
        const NetId out_net = cell.outputs[0];
        if ((sched[out_net] != 0) == new_out)
            continue;
        sched[out_net] = new_out ? 1 : 0;
        emit_net_event(out_net, event.time + delays->cellDelay(event.cell),
                       new_out);
    }
    return latest_endpoint;
}

void
TimedSimulator::simulateCone(const CycleWaveforms &golden, WireId injected,
                             double extra_delay, double period,
                             std::vector<LatchedPin> &latched) const
{
    const Netlist &netlist = *nl;
    latched.clear();

    std::vector<CellId> cone_cells;
    std::vector<StateElemId> reached;
    netlist.combCone(injected, cone_cells, reached);

    // Cone membership.
    std::vector<uint8_t> in_cone(netlist.numCells(), 0);
    for (CellId id : cone_cells)
        in_cone[id] = 1;

    // Latched endpoint tracking: last value arriving at or before the
    // edge wins. Endpoints keyed by (cell, pin); small per cone.
    struct Endpoint
    {
        CellId cell;
        uint16_t pin;
        uint8_t value;
    };
    std::vector<Endpoint> endpoints;
    auto endpoint_index = [&](CellId cell, uint16_t pin) -> size_t {
        for (size_t i = 0; i < endpoints.size(); ++i) {
            if (endpoints[i].cell == cell && endpoints[i].pin == pin)
                return i;
        }
        endpoints.push_back(
            {cell, pin,
             golden.preEdge[netlist.cell(cell).inputs[pin]]});
        return endpoints.size() - 1;
    };

    EventQueue queue;
    uint64_t sequence = 0;

    // Per-pin current values for cone cells; per-net scheduled values for
    // cone outputs.
    std::vector<std::vector<uint8_t>> pin_vals(netlist.numCells());
    std::vector<uint8_t> sched = golden.preEdge;
    for (CellId id : cone_cells) {
        const Cell &cell = netlist.cell(id);
        pin_vals[id].resize(cell.inputs.size());
        for (size_t pin = 0; pin < cell.inputs.size(); ++pin)
            pin_vals[id][pin] = golden.preEdge[cell.inputs[pin]];
    }

    // Replay a golden waveform into one sink pin, shifted by wire delay.
    // Events are time-sorted (CycleWaveforms invariant), so the first
    // arrival past the edge ends the replay.
    auto replay_boundary = [&](NetId net, CellId cell, uint16_t pin,
                               double wire_delay) {
        for (const NetEvent &event : golden.netEvents[net]) {
            const double arrive = event.time + wire_delay;
            if (arrive > period + kEps)
                break;
            queue.push({arrive, sequence++, cell, pin, event.value});
        }
    };

    // Boundary pins of cone cells (driver outside the cone), including
    // the faulted wire's own sink pin with the extra delay.
    const Wire &inj_wire = netlist.wire(injected);
    const Sink &inj_sink = netlist.wireSink(injected);
    for (CellId id : cone_cells) {
        const Cell &cell = netlist.cell(id);
        for (uint16_t pin = 0; pin < cell.inputs.size(); ++pin) {
            const NetId in_net = cell.inputs[pin];
            if (in_cone[netlist.net(in_net).driver])
                continue;
            double wire_delay =
                delays->wireDelay(netlist.inputWire(id, pin));
            if (in_net == inj_wire.net && id == inj_sink.cell
                && pin == inj_sink.pin) {
                wire_delay += extra_delay;
            }
            replay_boundary(in_net, id, pin, wire_delay);
        }
    }

    // The faulted wire may feed an endpoint directly.
    if (isEndpointCell(netlist.cell(inj_sink.cell).type)) {
        endpoint_index(inj_sink.cell, inj_sink.pin);
        replay_boundary(inj_wire.net, inj_sink.cell, inj_sink.pin,
                        delays->wireDelay(injected) + extra_delay);
    }

    // Register every endpoint pin reachable from the cone upfront: a pin
    // that receives no transition before the edge latches its pre-edge
    // value — which is precisely the mis-latch case the caller needs to
    // see, so silence must not make the pin disappear from the result.
    for (CellId id : cone_cells) {
        const Net &out_net = netlist.net(netlist.cell(id).outputs[0]);
        for (const Sink &sink : out_net.sinks) {
            if (isEndpointCell(netlist.cell(sink.cell).type))
                endpoint_index(sink.cell, sink.pin);
        }
    }

    while (!queue.empty()) {
        const PinEvent event = queue.top();
        queue.pop();
        const Cell &cell = netlist.cell(event.cell);
        if (!cellIsCombinational(cell.type)) {
            // Endpoint pin: record the latched value (events are in time
            // order, so the final write is the value at the edge).
            endpoints[endpoint_index(event.cell, event.pin)].value =
                event.value ? 1 : 0;
            continue;
        }
        pin_vals[event.cell][event.pin] = event.value ? 1 : 0;
        const bool new_out =
            evalFromPins(cell.type, pin_vals[event.cell].data());
        const NetId out_net = cell.outputs[0];
        if ((sched[out_net] != 0) == new_out)
            continue;
        sched[out_net] = new_out ? 1 : 0;
        const double out_time =
            event.time + delays->cellDelay(event.cell);
        if (out_time > period + kEps)
            continue;
        const Net &net_ref = netlist.net(out_net);
        for (uint32_t s = 0; s < net_ref.sinks.size(); ++s) {
            const Sink &sink = net_ref.sinks[s];
            const double arrive =
                out_time + delays->wireDelay(net_ref.firstWire + s);
            if (arrive > period + kEps)
                continue;
            if (!cellIsCombinational(netlist.cell(sink.cell).type)) {
                if (isEndpointCell(netlist.cell(sink.cell).type)) {
                    // Ensure the endpoint is tracked even before its
                    // event arrives; the event itself updates it.
                    endpoint_index(sink.cell, sink.pin);
                } else {
                    continue;
                }
            } else if (!in_cone[sink.cell]) {
                continue; // Outside the cone: cannot be affected.
            }
            queue.push({arrive, sequence++, sink.cell, sink.pin,
                        new_out});
        }
    }

    latched.reserve(endpoints.size());
    for (const Endpoint &endpoint : endpoints)
        latched.push_back(
            {endpoint.cell, endpoint.pin, endpoint.value != 0});
}

bool
goldenPinValueAtEdge(const DelayModel &delays, const CycleWaveforms &golden,
                     CellId cell, uint16_t pin, double period)
{
    const Netlist &netlist = delays.netlist();
    const NetId net = netlist.cell(cell).inputs[pin];
    const double wire_delay =
        delays.wireDelay(netlist.inputWire(cell, pin));
    bool value = golden.preEdge[net] != 0;
    for (const NetEvent &event : golden.netEvents[net]) {
        if (event.time + wire_delay > period + kEps)
            break; // Sorted waveform: nothing later can arrive in time.
        value = event.value;
    }
    return value;
}

} // namespace davf
