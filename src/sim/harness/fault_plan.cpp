#include "sim/harness/fault_plan.hpp"

#include <utility>

#include "sim/harness/wiring.hpp"

namespace repchain::sim {

std::unique_ptr<runtime::FaultyTransport> FaultPlan::install_network_faults(
    const ScenarioConfig& config, net::SimNetwork& net,
    const protocol::Directory& directory, const protocol::RoundTiming& timing,
    runtime::EventLoop& queue, const Rng& rng) {
  if (config.faults.empty()) return nullptr;
  const auto round_start = [&timing](std::size_t r) {
    return static_cast<SimTime>(r - 1) * timing.round_span;
  };
  const auto& spec = config.faults;
  runtime::FaultSchedule schedule;
  for (const auto& p : spec.partitions) {
    runtime::PartitionFault f;
    f.from = round_start(p.from_round);
    f.until = round_start(p.until_round);
    for (const std::size_t g : p.governors) {
      f.island.push_back(directory.node_of(GovernorId(static_cast<std::uint32_t>(g))));
    }
    for (const std::size_t c : p.collectors) {
      f.island.push_back(directory.node_of(CollectorId(static_cast<std::uint32_t>(c))));
    }
    for (const std::size_t pr : p.providers) {
      f.island.push_back(directory.node_of(ProviderId(static_cast<std::uint32_t>(pr))));
    }
    schedule.add(std::move(f));
  }
  for (const auto& l : spec.losses) {
    schedule.add(runtime::LossFault{round_start(l.from_round),
                                    round_start(l.until_round), l.probability,
                                    std::nullopt});
  }
  for (const auto& d : spec.delay_spikes) {
    schedule.add(runtime::DelayFault{round_start(d.from_round),
                                     round_start(d.until_round), d.extra, d.jitter});
  }
  for (const auto& d : spec.duplications) {
    schedule.add(runtime::DuplicateFault{round_start(d.from_round),
                                         round_start(d.until_round), d.probability});
  }
  for (const auto& r : spec.reorders) {
    schedule.add(runtime::ReorderFault{round_start(r.from_round),
                                       round_start(r.until_round), r.probability,
                                       r.max_extra});
  }
  // Slow links reuse the network's own per-link delay hook (they must affect
  // broadcast deliveries scheduled by the network, not just unicasts).
  for (const auto& ld : spec.link_delays) {
    const NodeId a =
        directory.node_of(GovernorId(static_cast<std::uint32_t>(ld.from_governor)));
    const NodeId b =
        directory.node_of(GovernorId(static_cast<std::uint32_t>(ld.to_governor)));
    queue.schedule_at(round_start(ld.from_round), [&net, a, b, extra = ld.extra] {
      net.set_link_delay(a, b, extra);
    });
    queue.schedule_at(round_start(ld.until_round),
                      [&net, a, b] { net.set_link_delay(a, b, 0); });
  }
  return std::make_unique<runtime::FaultyTransport>(net, std::move(schedule),
                                                    rng.derive(7));
}

void FaultPlan::install_adversary(const ScenarioConfig& config, Wiring& wiring,
                                  runtime::EventLoop& queue) {
  if (config.adversary.empty()) return;
  const auto& spec = config.adversary;
  // Window boundaries are enqueued here, before any round's phase timers, so
  // a swap at round_start(r) fires ahead of round r's election (FIFO
  // tie-break on equal deadlines). governor_byz_ is the source of truth the
  // lambdas mutate; make_governor re-reads it, so a Byzantine governor stays
  // Byzantine across a crash/restart inside its window.
  const auto set_governor_flags =
      [&wiring, &queue](std::size_t g, auto member, bool value, std::size_t round) {
        queue.schedule_at(wiring.round_start(round), [&wiring, g, member, value] {
          wiring.governor_byz_[g].*member = value;
          if (wiring.governors_[g]) {
            wiring.governors_[g]->set_byzantine(wiring.governor_byz_[g]);
          }
        });
      };
  for (const auto& s : spec.equivocating_leaders) {
    set_governor_flags(s.governor, &adversary::GovernorByzantine::equivocate_proposals,
                       true, s.from_round);
    set_governor_flags(s.governor, &adversary::GovernorByzantine::equivocate_proposals,
                       false, s.until_round);
  }
  for (const auto& s : spec.lying_sync_peers) {
    set_governor_flags(s.governor, &adversary::GovernorByzantine::lying_sync, true,
                       s.from_round);
    set_governor_flags(s.governor, &adversary::GovernorByzantine::lying_sync, false,
                       s.until_round);
  }
  for (const auto& s : spec.byzantine_collectors) {
    protocol::CollectorBehavior deviating = wiring.collector_baselines_[s.collector];
    deviating.flip_probability = s.flip_probability;
    deviating.forge_probability = s.forge_probability;
    deviating.equivocate = s.equivocate;
    deviating.flip_by_provider = s.flip_by_provider;
    queue.schedule_at(wiring.round_start(s.from_round),
                      [&wiring, c = s.collector, deviating = std::move(deviating)] {
                        wiring.collectors_[c].set_behavior(deviating);
                      });
    queue.schedule_at(wiring.round_start(s.until_round), [&wiring, c = s.collector] {
      wiring.collectors_[c].set_behavior(wiring.collector_baselines_[c]);
    });
  }
  for (const auto& s : spec.double_spenders) {
    queue.schedule_at(wiring.round_start(s.from_round),
                      [&wiring, p = s.provider, probability = s.probability] {
                        wiring.providers_[p].set_double_spend(probability);
                      });
    queue.schedule_at(wiring.round_start(s.until_round), [&wiring, p = s.provider] {
      wiring.providers_[p].set_double_spend(0.0);
    });
  }
}

void FaultPlan::apply_restarts(const ScenarioConfig& config, Wiring& wiring,
                               Round round) {
  for (const auto& plan : config.crashes) {
    if (plan.restart_round == round && !wiring.governors_[plan.governor]) {
      wiring.restart_governor(plan.governor);
    }
  }
}

void FaultPlan::schedule_crashes(const ScenarioConfig& config, Wiring& wiring,
                                 runtime::EventLoop& queue, Round round, SimTime t0) {
  for (const auto& plan : config.crashes) {
    if (plan.crash_round == round) {
      queue.schedule_at(t0 + plan.crash_offset,
                        [&wiring, g = plan.governor] { wiring.crash_governor(g); });
    }
  }
}

}  // namespace repchain::sim
