/**
 * @file
 * Cooperative SIGINT/SIGTERM handling for long campaigns.
 *
 * The first signal sets a stop flag that the engine checks between
 * injections (SamplingConfig::stopFlag); the campaign then flushes its
 * partial CSV and exits cleanly (completed cycles are already in its
 * cache tier). A second signal while
 * stopping force-exits (status 130), so a wedged run can still be
 * killed with a double Ctrl-C.
 */

#ifndef DAVF_CAMPAIGN_STOP_HH
#define DAVF_CAMPAIGN_STOP_HH

#include <atomic>

namespace davf {

/**
 * Install SIGINT/SIGTERM handlers that set the cooperative stop flag;
 * returns the flag. Idempotent.
 */
const std::atomic<bool> &installStopHandlers();

/** The cooperative stop flag (settable by tests and handlers). */
std::atomic<bool> &stopFlag();

/** Clear the flag (between campaigns, and in tests). */
void resetStopFlag();

} // namespace davf

#endif // DAVF_CAMPAIGN_STOP_HH
