/**
 * @file
 * Timing-aware event-driven simulation of a single clock cycle.
 *
 * This is Step #1 of the paper's two-step DelayACE computation (§V-B): the
 * only place sub-cycle timing matters is within the fault cycle itself, so
 * this simulator models exactly one clock period under a transport-delay
 * model and reports what every sampled endpoint pin latches at the edge.
 *
 * Two entry points mirror the optimization structure of §V-C:
 *
 *  - simulateCycle() runs the whole netlist fault-free for one cycle and
 *    records the transition waveform of every net. This is done once per
 *    injection cycle. Its arrival-only sibling, maxEndpointArrival(),
 *    runs the same event loop without recording waveforms; the golden
 *    capture uses it on every golden cycle to find the observed period.
 *  - simulateCone() re-simulates only the fanout cone of one faulted wire,
 *    replaying the recorded golden waveforms at the cone boundary (the
 *    injected delay cannot change anything upstream of the wire), with the
 *    wire's delay increased by d. Comparing its latched endpoint values
 *    with the fault-free ones yields the dynamically reachable set.
 *
 * Model notes: transport delays (glitches propagate, which is what lets a
 * larger d occasionally re-latch a correct value, §VI-B); transitions
 * arriving after the clock edge are discarded (the SDF lasts one cycle and
 * the next cycle restarts from latched state); a transition arriving
 * exactly at the edge is latched (the nominal design meets timing with
 * zero slack on its critical path).
 */

#ifndef DAVF_TSIM_TIMED_SIM_HH
#define DAVF_TSIM_TIMED_SIM_HH

#include <cstdint>
#include <vector>

#include "timing/sta.hh"

namespace davf {

/** One transition on a net: the net takes @p value at @p time. */
struct NetEvent
{
    double time;
    bool value;
};

/** Per-net transition waveforms for one cycle (indexed by NetId);
 *  the value before the first event is the pre-edge net value.
 *
 *  Invariant: every per-net event list is sorted by time (ties keep
 *  emission order). simulateCycle() establishes it on construction, and
 *  every replay consumer (simulateCone, the vectorized cone simulator,
 *  goldenPinValueAtEdge) exploits it to stop scanning at the first
 *  event past the clock edge. Hand-built waveforms must call
 *  sortEvents() before being replayed. */
struct CycleWaveforms
{
    std::vector<std::vector<NetEvent>> netEvents;
    std::vector<uint8_t> preEdge;  ///< Net values just before the edge.

    /** (Re-)establish the sorted-by-time invariant. Cheap when already
     *  sorted (one is_sorted scan per net, no allocation). */
    void sortEvents();
};

/** A sampled endpoint pin and the value it latched at the clock edge. */
struct LatchedPin
{
    CellId cell;
    uint16_t pin;
    bool value;
};

/** Event-driven single-cycle timing simulator. */
class TimedSimulator
{
  public:
    explicit TimedSimulator(const DelayModel &delays);

    /**
     * Fault-free full-netlist simulation of one clock cycle.
     *
     * @param pre_edge  net values settled at the end of the previous cycle
     *                  (indexed by NetId).
     * @param post_edge net values after the clock edge; only source nets
     *                  (sequential outputs, primary inputs) are read —
     *                  they transition to their post-edge value at clkToQ.
     * @param period    the clock period.
     * @param out       receives all per-net waveforms; its per-net
     *                  event buffers are reused across calls.
     */
    void simulateCycle(const std::vector<uint8_t> &pre_edge,
                       const std::vector<uint8_t> &post_edge,
                       double period, CycleWaveforms &out) const;

    /**
     * The latest arrival of any transition at a sampled endpoint pin in
     * the fault-free cycle pre_edge -> post_edge (0 when no endpoint
     * sees a transition). Bit-identical to scanning simulateCycle()'s
     * waveforms for each endpoint pin's last driver event plus its wire
     * delay, but records no waveforms. Thread-safe.
     */
    double maxEndpointArrival(const std::vector<uint8_t> &pre_edge,
                              const std::vector<uint8_t> &post_edge) const;

    /**
     * Re-simulate the fanout cone of @p injected with its wire delay
     * increased by @p extra_delay, replaying @p golden waveforms at the
     * cone boundary.
     *
     * @param golden      waveforms from simulateCycle for the same cycle.
     * @param injected    the faulted wire.
     * @param extra_delay the SDF duration d.
     * @param period      the clock period.
     * @param latched     receives the latched value of every endpoint pin
     *                    reachable from the faulted wire.
     */
    void simulateCone(const CycleWaveforms &golden, WireId injected,
                      double extra_delay, double period,
                      std::vector<LatchedPin> &latched) const;

    const DelayModel &delayModel() const { return *delays; }

  private:
    /**
     * The fault-free event loop shared by simulateCycle() and
     * maxEndpointArrival(). Appends each net transition to
     * (*net_events)[net] when @p net_events is non-null, and returns the
     * latest endpoint-pin arrival.
     */
    double runCycle(const std::vector<uint8_t> &pre_edge,
                    const std::vector<uint8_t> &post_edge,
                    std::vector<std::vector<NetEvent>> *net_events) const;

    const DelayModel *delays;
    const Netlist *nl;
};

/**
 * The value a sampled pin latches at the clock edge in the fault-free
 * cycle described by @p golden: the last transition of its driver net
 * that arrives at the pin (net event time + wire delay) no later than
 * the edge.
 */
bool goldenPinValueAtEdge(const DelayModel &delays,
                          const CycleWaveforms &golden, CellId cell,
                          uint16_t pin, double period);

} // namespace davf

#endif // DAVF_TSIM_TIMED_SIM_HH
