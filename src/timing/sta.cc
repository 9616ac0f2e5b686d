#include "sta.hh"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/logging.hh"

namespace davf {

namespace {

constexpr double kNoPath = -std::numeric_limits<double>::infinity();

/** True if this sink pin is sampled at the clock edge. */
bool
isEndpointSink(const Netlist &nl, const Sink &sink)
{
    const CellType type = nl.cell(sink.cell).type;
    return type == CellType::Dff || type == CellType::Dffe
        || type == CellType::Behav || type == CellType::Output;
}

} // namespace

DelayModel::DelayModel(const Netlist &netlist, const CellLibrary &library)
    : nl(&netlist), clkToQDelay(library.clkToQ)
{
    davf_assert(netlist.finalized(), "DelayModel requires finalize()");

    cellDelays.resize(netlist.numCells(), 0.0);
    for (CellId id = 0; id < netlist.numCells(); ++id) {
        const CellType type = netlist.cell(id).type;
        if (cellIsCombinational(type))
            cellDelays[id] = library.timing(type).intrinsic;
    }

    wireDelays.resize(netlist.numWires(), 0.0);
    for (WireId id = 0; id < netlist.numWires(); ++id) {
        const NetId net = netlist.wire(id).net;
        const CellType driver_type =
            netlist.cell(netlist.net(net).driver).type;
        const double slope = library.timing(driver_type).loadSlope;
        wireDelays[id] = library.wireBase
            + slope * static_cast<double>(netlist.fanout(net));
    }
}

Sta::Sta(const DelayModel &delay_model)
    : delays(&delay_model), nl(&delay_model.netlist())
{
    const Netlist &netlist = *nl;

    // Forward arrival times. Cycle-start sources (sequential outputs and
    // primary inputs) transition clkToQ after the edge; constants never
    // transition but are assigned time 0 so static paths through them are
    // well defined (the dynamic step filters them out).
    arrivals.assign(netlist.numNets(), 0.0);
    for (NetId id = 0; id < netlist.numNets(); ++id) {
        const CellType type = netlist.cell(netlist.net(id).driver).type;
        if (cellIsSequential(type) || type == CellType::Input)
            arrivals[id] = delays->clkToQ();
    }
    for (CellId id : netlist.topoOrder()) {
        const Cell &cell = netlist.cell(id);
        double latest = 0.0;
        for (uint16_t pin = 0; pin < cell.inputs.size(); ++pin) {
            const double pin_time = arrivals[cell.inputs[pin]]
                + delays->wireDelay(netlist.inputWire(id, pin));
            latest = std::max(latest, pin_time);
        }
        arrivals[cell.outputs[0]] = latest + delays->cellDelay(id);
    }

    // Design-wide longest path: worst arrival at any sampled endpoint pin.
    maxPathDelay = 0.0;
    for (NetId id = 0; id < netlist.numNets(); ++id) {
        const Net &net = netlist.net(id);
        for (uint32_t s = 0; s < net.sinks.size(); ++s) {
            if (!isEndpointSink(netlist, net.sinks[s]))
                continue;
            const double pin_time = arrivals[id]
                + delays->wireDelay(net.firstWire + s);
            maxPathDelay = std::max(maxPathDelay, pin_time);
        }
    }

    // Backward longest-to-endpoint delays, reverse topological order.
    downstreams.assign(netlist.numNets(), kNoPath);
    auto relax_net = [&](NetId id) {
        const Net &net = netlist.net(id);
        double best = kNoPath;
        for (uint32_t s = 0; s < net.sinks.size(); ++s) {
            const Sink &sink = net.sinks[s];
            const double wire = delays->wireDelay(net.firstWire + s);
            if (isEndpointSink(netlist, sink)) {
                best = std::max(best, wire);
            } else if (cellIsCombinational(netlist.cell(sink.cell).type)) {
                const NetId out = netlist.cell(sink.cell).outputs[0];
                if (downstreams[out] != kNoPath) {
                    best = std::max(best,
                                    wire + delays->cellDelay(sink.cell)
                                        + downstreams[out]);
                }
            }
        }
        downstreams[id] = best;
    };
    const auto &topo = netlist.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it)
        relax_net(netlist.cell(*it).outputs[0]);
    for (NetId id = 0; id < netlist.numNets(); ++id) {
        const CellType type = netlist.cell(netlist.net(id).driver).type;
        if (!cellIsCombinational(type))
            relax_net(id);
    }

    coneLatest.assign(netlist.numCells(), kNoPath);
    coneMark.assign(netlist.numCells(), 0);
}

double
Sta::longestPathThrough(WireId id) const
{
    const Netlist &netlist = *nl;
    const Wire &wire = netlist.wire(id);
    const Sink &sink = netlist.wireSink(id);
    const double prefix = arrivals[wire.net] + delays->wireDelay(id);
    if (isEndpointSink(netlist, sink))
        return prefix;
    if (cellIsCombinational(netlist.cell(sink.cell).type)) {
        const NetId out = netlist.cell(sink.cell).outputs[0];
        if (downstreams[out] != kNoPath) {
            return prefix + delays->cellDelay(sink.cell)
                + downstreams[out];
        }
    }
    return 0.0;
}

std::vector<Sta::EndpointArrival>
Sta::endpointArrivals(WireId id) const
{
    const Netlist &netlist = *nl;
    std::vector<EndpointArrival> endpoints;

    ++coneStamp;
    const uint32_t stamp = coneStamp;

    // Min-heap on topological level so every cone cell is finalized after
    // all of its in-cone predecessors.
    using Entry = std::pair<unsigned, CellId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;

    // A transition reaching @p sink at @p pin_time: an endpoint is
    // noted, a combinational cell's output arrival is raised (and the
    // cell queued on first touch).
    auto relax = [&](const Sink &sink, double pin_time) {
        const CellType type = netlist.cell(sink.cell).type;
        if (isEndpointSink(netlist, sink)) {
            endpoints.push_back(
                {type == CellType::Dff || type == CellType::Dffe
                     ? netlist.flopStateElem(sink.cell)
                     : netlist.pinStateElem(sink.cell, sink.pin),
                 pin_time});
            return;
        }
        if (!cellIsCombinational(type))
            return;
        const double out_time = pin_time + delays->cellDelay(sink.cell);
        if (coneMark[sink.cell] == stamp) {
            coneLatest[sink.cell] =
                std::max(coneLatest[sink.cell], out_time);
        } else if (coneMark[sink.cell] != (stamp ^ 0x80000000u)) {
            coneMark[sink.cell] = stamp;
            coneLatest[sink.cell] = out_time;
            queue.emplace(netlist.level(sink.cell), sink.cell);
        }
    };

    relax(netlist.wireSink(id),
          arrivals[netlist.wire(id).net] + delays->wireDelay(id));

    while (!queue.empty()) {
        const CellId cell_id = queue.top().second;
        queue.pop();
        // A cell may be pushed once per in-cone fanin; only its first pop
        // (by then coneLatest holds the max, as all predecessors have
        // strictly lower levels) expands it. Detect repeats by checking
        // whether we already expanded: flip the mark to stamp | 0x8000...
        if (coneMark[cell_id] != stamp)
            continue; // Already expanded (mark advanced below).
        coneMark[cell_id] = stamp ^ 0x80000000u;

        const Net &net = netlist.net(netlist.cell(cell_id).outputs[0]);
        for (uint32_t s = 0; s < net.sinks.size(); ++s) {
            relax(net.sinks[s], coneLatest[cell_id]
                                    + delays->wireDelay(net.firstWire + s));
        }
    }

    // One entry per element, its latest pin: latest first within an
    // element, so unique() keeps it.
    std::ranges::sort(endpoints, {}, [](const EndpointArrival &e) {
        return std::pair(e.elem, -e.arrival);
    });
    const auto dups =
        std::ranges::unique(endpoints, {}, &EndpointArrival::elem);
    endpoints.erase(dups.begin(), dups.end());
    endpoints.shrink_to_fit(); // A sweep may hold it: drop pin slack.
    return endpoints;
}

} // namespace davf
