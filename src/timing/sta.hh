/**
 * @file
 * Static timing analysis (the paper's OpenSTA role).
 *
 * Provides everything the DelayAVF methodology needs from timing:
 *
 *  - per-wire propagation delays from the technology library's
 *    driver-strength + capacitive-load model (§IV-A);
 *  - settled arrival times per net, and the design-wide longest
 *    register-to-register path, which sets the clock period ("the clock
 *    period of the Ibex core is set to equal the length of the longest
 *    path in the entire design", §VI-A);
 *  - the longest complete path *through* each wire (Fig. 6 path-length
 *    distributions);
 *  - the statically reachable set of an SDF (Definition 2): the state
 *    elements terminating at least one path through the delayed wire whose
 *    length exceeds the clock period once the extra delay d is added.
 *
 * Timing is modeled as in the paper's case study: pre-layout, data
 * independent, wireDelay = base + slope(driver) * fanout, cell pin-to-pin
 * delay = intrinsic(cell type), sequential outputs valid clkToQ after the
 * clock edge.
 */

#ifndef DAVF_TIMING_STA_HH
#define DAVF_TIMING_STA_HH

#include <vector>

#include "netlist/netlist.hh"

namespace davf {

/** Per-wire and per-cell delays derived from the cell library. */
class DelayModel
{
  public:
    DelayModel(const Netlist &netlist, const CellLibrary &library);

    /** Propagation delay of wire @p id (ps). */
    double wireDelay(WireId id) const { return wireDelays[id]; }

    /** Pin-to-pin intrinsic delay of cell @p id (ps). */
    double cellDelay(CellId id) const { return cellDelays[id]; }

    /** Clock-to-Q delay of sequential outputs (ps). */
    double clkToQ() const { return clkToQDelay; }

    /**
     * Permanently add @p extra to one wire's delay. Used on *copies* of
     * the nominal model, e.g. to brute-force-simulate a fault cycle with
     * the SDF baked into the timing (see
     * VulnerabilityEngine::delayAceBruteForce).
     */
    void addExtraWireDelay(WireId id, double extra)
    {
        wireDelays[id] += extra;
    }

    const Netlist &netlist() const { return *nl; }

  private:
    const Netlist *nl;
    std::vector<double> wireDelays;
    std::vector<double> cellDelays;
    double clkToQDelay;
};

/** Static timing analysis over a finalized netlist. */
class Sta
{
  public:
    /** Runs the full-design arrival analysis on construction. */
    explicit Sta(const DelayModel &delays);

    /** Settled (worst-case) transition time of a net within a cycle. */
    double arrival(NetId id) const { return arrivals[id]; }

    /**
     * Longest register-to-register path in the design: the minimum clock
     * period at which the fault-free design meets timing.
     */
    double maxPath() const { return maxPathDelay; }

    /**
     * Longest complete path through wire @p id, from a cycle-start source
     * to a sampled endpoint (Fig. 6 distributions). Wires that reach no
     * endpoint (e.g. dangling) report 0.
     */
    double longestPathThrough(WireId id) const;

    /** An endpoint of a wire's fanout cone and its latest arrival
     *  through the wire at zero extra delay (ps). */
    struct EndpointArrival
    {
        StateElemId elem;
        double arrival;
    };

    /**
     * The cone-restricted DP, proportional to wire @p id's fanout cone:
     * each state element terminating a path through the wire, with its
     * latest arrival, one entry per element, sorted by element.
     */
    std::vector<EndpointArrival> endpointArrivals(WireId id) const;

    /**
     * Statically reachable set (Definition 2) at @p extra_delay from a
     * wire's endpointArrivals(): the elements whose arrival plus the
     * delay exceeds @p period, sorted. The one place the test is made.
     */
    static void
    reachableAt(const std::vector<EndpointArrival> &arrivals,
                double extra_delay, double period,
                std::vector<StateElemId> &reachable)
    {
        reachable.clear();
        for (const EndpointArrival &endpoint : arrivals) {
            if (endpoint.arrival + extra_delay > period + 1e-9)
                reachable.push_back(endpoint.elem);
        }
    }

    /**
     * Statically reachable set (Definition 2): state elements terminating
     * a path through wire @p id whose length exceeds @p period when the
     * wire's delay is increased by @p extra_delay.
     *
     * @param id           the faulted wire.
     * @param extra_delay  the SDF duration d (ps).
     * @param period       the clock period (ps).
     * @param reachable    output: the statically reachable set.
     */
    void
    staticallyReachable(WireId id, double extra_delay, double period,
                        std::vector<StateElemId> &reachable) const
    {
        reachableAt(endpointArrivals(id), extra_delay, period, reachable);
    }

    const DelayModel &delayModel() const { return *delays; }

  private:
    const DelayModel *delays;
    const Netlist *nl;
    std::vector<double> arrivals;     ///< Per net.
    std::vector<double> downstreams;  ///< Per net: to any endpoint pin.
    double maxPathDelay = 0.0;

    /** Scratch for endpointArrivals (per-instance; not thread-safe,
     *  use one Sta clone per thread or external locking). */
    mutable std::vector<double> coneLatest;   ///< Per cell output latest.
    mutable std::vector<uint32_t> coneMark;   ///< Visit stamps per cell.
    mutable uint32_t coneStamp = 0;
};

} // namespace davf

#endif // DAVF_TIMING_STA_HH
