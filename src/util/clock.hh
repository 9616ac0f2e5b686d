/**
 * @file
 * The monotonic millisecond clock the deadline loops share: frame
 * reads, heartbeat windows, shard budgets, and shutdown grace periods.
 */

#ifndef DAVF_UTIL_CLOCK_HH
#define DAVF_UTIL_CLOCK_HH

#include <chrono>

namespace davf {

/** Milliseconds on the steady clock; only differences mean anything. */
inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace davf

#endif // DAVF_UTIL_CLOCK_HH
