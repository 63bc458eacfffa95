#pragma once

// Harness layer: fault and adversary installation. FaultPlan lowers the
// declarative, round-windowed specs in a ScenarioConfig (network faults,
// Byzantine behavior windows, crash/restart plans) onto the live run: the
// FaultyTransport decorator, scheduled behavior swaps, and round-boundary
// crash/restart application. Stateless — every function reads the spec and
// acts on the Wiring.

#include <memory>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "net/network.hpp"
#include "protocol/round_timing.hpp"
#include "runtime/fault_schedule.hpp"
#include "sim/harness/spec.hpp"

namespace repchain::sim {

struct Wiring;

class FaultPlan {
 public:
  /// Lower config.faults (round windows) onto an absolute-time FaultSchedule
  /// and build the FaultyTransport decorator; schedule the link-delay spans.
  /// Returns null when no network faults are scheduled.
  static std::unique_ptr<runtime::FaultyTransport> install_network_faults(
      const ScenarioConfig& config, net::SimNetwork& net,
      const protocol::Directory& directory, const protocol::RoundTiming& timing,
      runtime::EventLoop& queue, const Rng& rng);

  /// Lower config.adversary (round windows) onto scheduled behavior swaps:
  /// governor Byzantine flags, collector deviation profiles, and provider
  /// double-spend rates are installed at each window start and reverted at
  /// its end. Governor flags also persist through crash/restart rebuilds.
  static void install_adversary(const ScenarioConfig& config, Wiring& wiring,
                                runtime::EventLoop& queue);

  /// Rebuild every governor whose CrashPlan restarts at `round` (called at
  /// the round boundary, before timers are armed, so the recovered governor
  /// takes part in this round's election).
  static void apply_restarts(const ScenarioConfig& config, Wiring& wiring,
                             Round round);

  /// Schedule this round's crashes at their configured mid-round offsets.
  static void schedule_crashes(const ScenarioConfig& config, Wiring& wiring,
                               runtime::EventLoop& queue, Round round, SimTime t0);
};

}  // namespace repchain::sim
