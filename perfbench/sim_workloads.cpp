// The simulator workloads (sim_bulk, sim_committee) and the traced run's
// handler and phase spans.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "cluster/free_run.hpp"
#include "common/errors.hpp"
#include "common/serial.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repchain;
using runtime::MsgKind;

const char* kind_name(MsgKind k) {
  switch (k) {
    case MsgKind::kProviderTx: return "provider_tx";
    case MsgKind::kCollectorUpload: return "upload";
    case MsgKind::kArgue: return "argue";
    case MsgKind::kVrfAnnounce: return "vrf_announce";
    case MsgKind::kBlockProposal: return "block_proposal";
    case MsgKind::kStakeTx: return "stake_tx";
    case MsgKind::kStateProposal: return "state_proposal";
    case MsgKind::kStateSignature: return "state_signature";
    case MsgKind::kStateCommit: return "state_commit";
    case MsgKind::kExpelEvidence: return "expel_evidence";
    case MsgKind::kLabelGossip: return "label_gossip";
    case MsgKind::kBlockRequest: return "block_request";
    case MsgKind::kBlockResponse: return "block_response";
    case MsgKind::kReliableData: return "reliable_data";
    case MsgKind::kReliableAck: return "reliable_ack";
    case MsgKind::kTest: return "test";
  }
  return "unknown";
}

constexpr MsgKind kAllKinds[] = {
    MsgKind::kProviderTx,     MsgKind::kCollectorUpload, MsgKind::kArgue,
    MsgKind::kVrfAnnounce,    MsgKind::kBlockProposal,   MsgKind::kStakeTx,
    MsgKind::kStateProposal,  MsgKind::kStateSignature,  MsgKind::kStateCommit,
    MsgKind::kExpelEvidence,  MsgKind::kLabelGossip,     MsgKind::kBlockRequest,
    MsgKind::kBlockResponse,  MsgKind::kReliableData,    MsgKind::kReliableAck};

/// Handler-span group of a message kind: the three stake-consensus steps and
/// stake transfers share one span.
std::string span_group(MsgKind k) {
  switch (k) {
    case MsgKind::kStakeTx:
    case MsgKind::kStateProposal:
    case MsgKind::kStateSignature:
    case MsgKind::kStateCommit:
      return "stake";
    default:
      return kind_name(k);
  }
}

/// The kind a delivery carries: for a reliable-channel data envelope, the
/// inner kind from its header (epoch u32, seq u64, kind u16), so enveloped
/// traffic is attributed to the handler that processes it.
MsgKind carried_kind(const runtime::Message& m) {
  if (m.kind != MsgKind::kReliableData) return m.kind;
  try {
    BinaryReader r(m.payload);
    (void)r.u32();
    (void)r.u64();
    return static_cast<MsgKind>(r.u16());
  } catch (const DecodeError&) {
    return m.kind;
  }
}

/// Times every delivery of the re-installed handlers (trace (b)). Spans
/// accumulate in flat per-(tier, kind) slots and are folded into SpanTotals
/// after the run, so the probe itself stays cheap.
struct HandlerProbe {
  enum Tier { kProvider, kCollector, kGovernor, kTiers };
  static constexpr std::size_t kKinds = 16;  // MsgKind values 1..15

  SpanTotals& spans;
  sim::Scenario& scenario;
  std::vector<SimTime> last_wave;  // per governor: instant of its last upload
  std::vector<bool> has_wave;
  SpanTotals::Acc acc[kTiers][kKinds] = {};

  void record(Tier tier, const runtime::Message& m, double seconds, std::size_t governor) {
    const MsgKind carried = carried_kind(m);
    spans.handler_seconds += seconds;
    if (m.kind == MsgKind::kReliableData || m.kind == MsgKind::kReliableAck) {
      spans.envelopes.seconds += seconds;
      ++spans.envelopes.n;
    }
    const auto k = static_cast<std::size_t>(carried);
    if (m.kind != MsgKind::kReliableAck && k < kKinds) {
      acc[tier][k].seconds += seconds;
      ++acc[tier][k].n;
    }
    if (tier == kGovernor && carried == MsgKind::kCollectorUpload) {
      const SimTime now = scenario.queue().now();
      if (!has_wave[governor] || last_wave[governor] != now) {
        ++spans.upload_waves;
        last_wave[governor] = now;
        has_wave[governor] = true;
      }
      ++spans.uploads;
    }
  }

  void fold() {
    static const char* kTierNames[kTiers] = {"provider", "collector", "governor"};
    for (int t = 0; t < kTiers; ++t) {
      for (std::size_t k = 1; k < kKinds; ++k) {
        if (acc[t][k].n == 0) continue;
        SpanTotals::Acc& into = spans.handlers[std::string(kTierNames[t]) + "." +
                                               span_group(static_cast<MsgKind>(k))];
        into.seconds += acc[t][k].seconds;
        into.n += acc[t][k].n;
      }
    }
  }
};

/// Re-install each node's handler through SimNetwork::set_handler, calling
/// the same on_message entry points the harness wiring calls (and skipping a
/// crashed governor's null slot the same way), with a span around each call.
void install_handlers(sim::Scenario& s, HandlerProbe& probe) {
  net::SimNetwork& net = s.network();
  const protocol::Directory& dir = s.directory();
  for (std::size_t i = 0; i < s.providers().size(); ++i) {
    const ProviderId id(static_cast<std::uint32_t>(i));
    net.set_handler(dir.node_of(id), [&s, &probe, i](const net::Message& m) {
      const double t = wall_s();
      s.providers()[i].on_message(m);
      probe.record(HandlerProbe::kProvider, m, wall_s() - t, 0);
    });
  }
  for (std::size_t i = 0; i < s.collectors().size(); ++i) {
    const CollectorId id(static_cast<std::uint32_t>(i));
    net.set_handler(dir.node_of(id), [&s, &probe, i](const net::Message& m) {
      const double t = wall_s();
      s.collectors()[i].on_message(m);
      probe.record(HandlerProbe::kCollector, m, wall_s() - t, 0);
    });
  }
  for (std::size_t i = 0; i < s.governors().size(); ++i) {
    const GovernorId id(static_cast<std::uint32_t>(i));
    net.set_handler(dir.node_of(id), [&s, &probe, i](const net::Message& m) {
      auto& slot = s.governors()[i];
      if (!slot) return;
      const double t = wall_s();
      slot->on_message(m);
      probe.record(HandlerProbe::kGovernor, m, wall_s() - t, i);
    });
  }
}

/// sim_bulk: few governors, many transactions per provider per round.
sim::ScenarioConfig bulk_config() {
  sim::ScenarioConfig c;
  c.topology = {16, 8, 4, 2};
  c.rounds = 3;
  c.txs_per_provider_per_round = 16;
  c.p_valid = 0.8;
  c.behaviors = {protocol::CollectorBehavior::honest(),
                 protocol::CollectorBehavior::noisy(0.9)};
  return c;
}

/// sim_committee: a wide committee, one transaction per provider per round,
/// reliable delivery, label gossip, misreporting collectors and durable
/// governor stores (one governor is crashed and restarted by the bench).
sim::ScenarioConfig committee_config() {
  sim::ScenarioConfig c;
  c.topology = {24, 6, 7, 2};
  c.rounds = 6;
  c.txs_per_provider_per_round = 1;
  // Half the traffic invalid: more invalid-unchecked records per run, so
  // unchecked_share is not dominated by counting noise at this volume.
  c.p_valid = 0.5;
  c.behaviors = {protocol::CollectorBehavior::honest(),
                 protocol::CollectorBehavior::honest(),
                 protocol::CollectorBehavior::misreporting(0.3)};
  c.reliable_delivery = true;
  c.enable_label_gossip = true;
  c.durable_governors = true;
  c.governor_stakes.assign(c.topology.governors, 2);
  return c;
}

/// cluster_free's config: the `mixed` golden topology and collector mix
/// under a heavier per-round load, widened for free-running processes.
sim::ScenarioConfig cluster_config() {
  sim::ScenarioConfig c;
  c.topology = {8, 4, 3, 2};
  c.rounds = 4;
  c.txs_per_provider_per_round = 16;
  c.p_valid = 0.8;
  c.audit_probability = 0.6;
  c.behaviors = {protocol::CollectorBehavior::honest(),
                 protocol::CollectorBehavior::noisy(0.9),
                 protocol::CollectorBehavior::misreporting(0.3),
                 protocol::CollectorBehavior::forging(0.2)};
  return cluster::free_run_config(c);
}

}  // namespace

SimPlan plan_for(const std::string& workload, std::uint64_t seed) {
  SimPlan plan;
  if (workload == "sim_bulk") {
    plan.config = bulk_config();
  } else if (workload == "sim_committee") {
    plan.config = committee_config();
    plan.crash = CrashRestart{4, 2};
    plan.stake_transfers = true;
  } else if (workload == "cluster_free") {
    plan.config = cluster_config();
  } else {
    throw ConfigError("unknown workload " + workload);
  }
  plan.config.seed = seed;
  return plan;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) { return seed * 1000 + k; }

std::string Execution::fingerprint() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "head=%s msgs=%llu bytes=%llu submitted=%llu committed=%llu "
                "validations=%llu",
                head_hex.c_str(),
                static_cast<unsigned long long>(summary.network.messages_sent),
                static_cast<unsigned long long>(summary.network.bytes_sent),
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(validations));
  return buf;
}

Execution execute(const SimPlan& plan, SpanTotals* spans) {
  Execution e;
  const double c0 = wall_s();
  sim::Scenario s(plan.config);
  e.setup_s = wall_s() - c0;

  std::optional<HandlerProbe> probe;
  if (spans != nullptr) {
    const std::size_t m = s.governors().size();
    probe.emplace(*spans, s, std::vector<SimTime>(m, 0), std::vector<bool>(m, false));
    install_handlers(s, *probe);
  }

  const protocol::RoundTiming& timing = s.timing();
  const SimDuration phase_at[7] = {timing.election_offset, timing.workload_offset,
                                   timing.propose_offset,  timing.sync_offset,
                                   timing.stake_offset,    timing.audit_offset,
                                   timing.round_span};
  // Phase marks live for the whole execution: every marker fires inside its
  // round's run_until, and none can outlive this frame.
  double marks[7] = {};
  const double w0 = wall_s();
  const double cpu0 = process_cpu_s();
  for (std::size_t r = 1; r <= plan.config.rounds; ++r) {
    if (plan.crash && r == plan.crash->crash_after_round + 2) {
      const double t = wall_s();
      s.restart_governor(plan.crash->governor);
      e.restart_ms = (wall_s() - t) * 1e3;
    }
    if (plan.stake_transfers) {
      const std::size_t m = s.governors().size();
      const std::size_t from = (r - 1) % m;
      if (s.governors()[from]) {
        s.governors()[from]->submit_stake_transfer(
            GovernorId(static_cast<std::uint32_t>((from + 1) % m)), 1);
      }
    }
    if (spans != nullptr) {
      // Phase markers (trace (c)): no-op events at each RoundTiming offset,
      // queued ahead of the round's own timers at the same instants.
      const SimTime t0 = s.queue().now();
      for (int k = 0; k < 7; ++k) {
        s.queue().schedule_at(t0 + phase_at[k], [&marks, k] { marks[k] = wall_s(); });
      }
    }
    const double r0 = wall_s();
    s.run_round();
    if (spans != nullptr) {
      spans->round_wall_ms.push_back((wall_s() - r0) * 1e3);
      for (int k = 0; k < 6; ++k) spans->phase_seconds[k] += marks[k + 1] - marks[k];
    }
    if (plan.crash && r == plan.crash->crash_after_round) {
      s.crash_governor(plan.crash->governor);
    }
  }
  e.run_wall_s = wall_s() - w0;
  e.run_cpu_s = process_cpu_s() - cpu0;
  if (probe) probe->fold();
  std::printf("# %s seed %llu: setup %.4fs run %.4fs cpu %.4fs\n",
              spans != nullptr ? "traced" : "execution",
              static_cast<unsigned long long>(plan.config.seed), e.setup_s, e.run_wall_s,
              e.run_cpu_s);

  e.summary = s.summary();
  e.submitted = e.summary.txs_submitted;
  e.validations = s.oracle().validations();
  e.governors = s.governors().size();

  // The reference replica is governor 0, the node the round observer
  // watches; the bench never crashes it.
  const ledger::ChainStore& chain = s.governor(0).chain();
  e.head_hex = to_hex(view(chain.head_hash()));
  std::unordered_set<ledger::TxId, ledger::TxIdHash> committed;
  std::unordered_set<ledger::TxId, ledger::TxIdHash> unchecked;
  double bytes = 0.0;
  for (const ledger::Block& b : chain.blocks()) {
    bytes += static_cast<double>(b.encode().size());
    const std::optional<SimTime> at = s.observer().commit_at(b.round);
    for (const ledger::TxRecord& rec : b.txs) {
      const ledger::TxId id = rec.tx.id();
      if (rec.unchecked()) unchecked.insert(id);
      if (!committed.insert(id).second) continue;
      if (at) {
        e.latency_ms.push_back(static_cast<double>(*at - rec.tx.timestamp) / 1e3);
      }
    }
  }
  e.committed = committed.size();
  e.unchecked = unchecked.size();
  if (!chain.empty()) {
    e.block_bytes_mean = bytes / static_cast<double>(chain.height());
    const double mean_txs =
        static_cast<double>(e.committed) / static_cast<double>(chain.height());
    const ledger::Block* best = &chain.blocks().front();
    for (const ledger::Block& b : chain.blocks()) {
      if (std::abs(static_cast<double>(b.txs.size()) - mean_txs) <
          std::abs(static_cast<double>(best->txs.size()) - mean_txs)) {
        best = &b;
      }
    }
    e.mean_block = *best;
  }
  for (const auto& [id, valid] : s.oracle().truth()) {
    if (valid && committed.count(id) == 0) ++e.failed;
  }
  for (const protocol::Collector& c : s.collectors()) e.collector_uploads += c.stats().uploaded;
  for (const auto& g : s.governors()) {
    if (!g) continue;
    e.screened += g->screening_stats().screened;
    e.checked += g->screening_stats().checked;
    e.uploads_rejected += g->metrics().uploads_rejected;
    e.argues_accepted += g->metrics().argues_accepted;
    e.blocks_synced += g->metrics().blocks_synced;
    e.watchdog_trips += g->metrics().watchdog_trips;
  }
  return e;
}

void check_execution(const Execution& e, const std::string& label) {
  if (!e.summary.agreement) throw CheckFailed{label + ": governor chains disagree"};
  if (!e.summary.chains_audit_ok) throw CheckFailed{label + ": chain audit failed"};
  if (e.committed == 0) throw CheckFailed{label + ": nothing committed"};
}

namespace {

std::vector<double> pooled_latency(const std::vector<Execution>& first_pass) {
  std::vector<double> lat;
  for (const Execution& e : first_pass) {
    lat.insert(lat.end(), e.latency_ms.begin(), e.latency_ms.end());
  }
  return lat;
}

}  // namespace

void add_outcome_metrics(Metrics& m, const std::vector<Execution>& first_pass) {
  double committed = 0.0;
  double unchecked = 0.0;
  double validations = 0.0;
  for (const Execution& e : first_pass) {
    committed += static_cast<double>(e.committed);
    unchecked += static_cast<double>(e.unchecked);
    validations += static_cast<double>(e.validations) / static_cast<double>(e.governors);
  }
  m.add("commit_latency_p50_ms", quantile(pooled_latency(first_pass), 0.50), "ms");
  m.add("validations_per_committed_tx", validations / committed, "count");
  m.add("unchecked_share", unchecked / committed, "share");
}

void add_tail_metrics(Metrics& m, const std::vector<Execution>& first_pass) {
  const std::vector<double> lat = pooled_latency(first_pass);
  // The p99 is reported only with at least ten samples beyond it.
  if (lat.size() < 1000) {
    throw ConfigError("too few latency samples for a p99: " + std::to_string(lat.size()));
  }
  m.add("commit_latency_p99_ms", quantile(lat, 0.99), "ms");
  m.add("commit_latency.samples", static_cast<double>(lat.size()), "count");
}

void add_span_metrics(Metrics& m, const Execution& e, const SpanTotals& spans) {
  const double rounds = static_cast<double>(spans.round_wall_ms.size());
  m.add("sim.round_wall_ms_p50", median(spans.round_wall_ms), "ms");
  m.add("sim.round_wall_ms_max", quantile(spans.round_wall_ms, 1.0), "ms");
  static const char* kPhases[6] = {"election", "collect", "propose",
                                   "sync",     "stake",   "audit"};
  double phase_total = 0.0;
  for (int k = 0; k < 6; ++k) {
    phase_total += spans.phase_seconds[k];
    m.add(std::string("protocol.phase.") + kPhases[k] + "_ms",
          spans.phase_seconds[k] * 1e3 / rounds, "ms");
  }
  m.add("protocol.phase.timer_self_ms",
        (phase_total - spans.handler_seconds) * 1e3 / rounds, "ms");

  auto span = [&](const std::string& metric, const std::string& key) {
    const auto it = spans.handlers.find(key);
    const SpanTotals::Acc acc = it == spans.handlers.end() ? SpanTotals::Acc{} : it->second;
    m.add(metric + "_us", acc.n == 0 ? 0.0 : acc.seconds * 1e6 / static_cast<double>(acc.n), "us");
    m.add(metric + "_us.n", static_cast<double>(acc.n), "count");
  };
  span("protocol.collector.provider_tx", "collector.provider_tx");
  for (const char* k : {"upload", "vrf_announce", "block_proposal", "label_gossip",
                        "stake", "block_request", "argue"}) {
    span(std::string("protocol.governor.") + k, std::string("governor.") + k);
  }
  span("protocol.provider.block_response", "provider.block_response");

  const double committed = static_cast<double>(e.committed);
  m.add("protocol.intake.wave_size_mean",
        spans.upload_waves == 0 ? 0.0
                                : static_cast<double>(spans.uploads) /
                                      static_cast<double>(spans.upload_waves),
        "count");
  m.add("protocol.screening.checked_share",
        e.screened == 0 ? 0.0 : static_cast<double>(e.checked) / static_cast<double>(e.screened),
        "share");
  m.add("protocol.collector.uploads_per_tx",
        static_cast<double>(e.collector_uploads) / static_cast<double>(e.submitted), "count");
  m.add("protocol.governor.uploads_rejected", static_cast<double>(e.uploads_rejected), "count");
  m.add("protocol.governor.argues_accepted", static_cast<double>(e.argues_accepted), "count");
  m.add("protocol.governor.blocks_synced", static_cast<double>(e.blocks_synced), "count");
  m.add("protocol.governor.watchdog_trips", static_cast<double>(e.watchdog_trips), "count");

  const net::NetworkStats& ns = e.summary.network;
  m.add("net.msgs_per_tx", static_cast<double>(ns.messages_sent) / committed, "count");
  m.add("net.bytes_per_tx", static_cast<double>(ns.bytes_sent) / committed, "bytes");
  for (const MsgKind k : kAllKinds) {
    const auto it = ns.by_kind.find(k);
    const double n = it == ns.by_kind.end() ? 0.0 : static_cast<double>(it->second);
    m.add(std::string("net.msgs_per_tx.") + kind_name(k), n / committed, "count");
  }
  m.add("runtime.reliable_envelope_us",
        spans.envelopes.n == 0
            ? 0.0
            : spans.envelopes.seconds * 1e6 / static_cast<double>(spans.envelopes.n),
        "us");
  m.add("runtime.reliable_envelope_us.n", static_cast<double>(spans.envelopes.n), "count");
  double round_total_ms = 0.0;
  for (const double w : spans.round_wall_ms) round_total_ms += w;
  std::printf("# traced: phases cover %.1f%% of round wall; handlers %.1f%% of phases\n",
              100.0 * phase_total * 1e3 / round_total_ms,
              100.0 * spans.handler_seconds / phase_total);
}

double side_restart_ms(const SimPlan& plan) {
  SimPlan side = plan;
  side.config.durable_governors = true;
  side.config.rounds = 3;
  side.crash = CrashRestart{side.config.topology.governors - 1, 1};
  return execute(side, nullptr).restart_ms;
}

namespace {

/// Sub-scenarios per run, sized so the first pass yields 1000+ commit
/// latency samples. Their seeds derive from --seed, so the inputs of a run
/// are fixed by the seed alone; the time budget only decides how many timing
/// repetitions follow the first pass.
std::uint64_t sub_seeds(const std::string& workload) {
  return workload == "sim_committee" ? 11 : 9;
}


/// Counter totals of several executions (the traced per-layer base).
Execution total_of(const std::vector<Execution>& runs) {
  Execution t = runs.front();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const Execution& e = runs[i];
    t.submitted += e.submitted;
    t.committed += e.committed;
    t.unchecked += e.unchecked;
    t.failed += e.failed;
    t.validations += e.validations;
    t.collector_uploads += e.collector_uploads;
    t.screened += e.screened;
    t.checked += e.checked;
    t.uploads_rejected += e.uploads_rejected;
    t.argues_accepted += e.argues_accepted;
    t.blocks_synced += e.blocks_synced;
    t.watchdog_trips += e.watchdog_trips;
    net::NetworkStats& ns = t.summary.network;
    ns.messages_sent += e.summary.network.messages_sent;
    ns.bytes_sent += e.summary.network.bytes_sent;
    for (const auto& [k, n] : e.summary.network.by_kind) ns.by_kind[k] += n;
  }
  return t;
}

}  // namespace

void add_traced_sim_metrics(Result& res, const std::vector<SimPlan>& plans) {
  // Every plan untraced (the tail-latency base and the purity reference),
  // then the first two traced; a traced execution must reproduce its
  // untraced fingerprint, since observation may not change the run.
  std::vector<Execution> first;
  std::vector<double> restart;
  for (const SimPlan& plan : plans) {
    first.push_back(execute(plan, nullptr));
    check_execution(first.back(), "seed " + std::to_string(plan.config.seed));
    if (first.back().restart_ms >= 0.0) restart.push_back(first.back().restart_ms);
  }
  SpanTotals spans;
  std::vector<Execution> traced;
  std::vector<double> overhead;
  for (std::size_t k = 0; k < std::min<std::size_t>(2, plans.size()); ++k) {
    traced.push_back(execute(plans[k], &spans));
    check_execution(traced.back(), "traced seed " + std::to_string(plans[k].config.seed));
    if (traced.back().fingerprint() != first[k].fingerprint()) {
      throw CheckFailed{"traced run diverged: " + first[k].fingerprint() + " vs " +
                        traced.back().fingerprint()};
    }
    overhead.push_back(100.0 * (traced.back().run_wall_s - first[k].run_wall_s) /
                       first[k].run_wall_s);
  }
  for (const std::vector<Execution>* runs : {&first, &traced}) {
    for (const Execution& e : *runs) {
      res.attempted += e.submitted;
      res.failed += e.failed;
    }
  }
  add_span_metrics(res.metrics, total_of(traced), spans);
  add_unit_costs(res.metrics, first.front(), res.metrics.at("protocol.intake.wave_size_mean"));
  res.metrics.add("storage.restart_ms",
                  restart.empty() ? side_restart_ms(plans.front()) : median(restart), "ms");
  add_cluster_placeholders(res.metrics);
  res.metrics.add("trace.overhead_pct", median(overhead), "%");
  res.metrics.add("failed_tx_share",
                  static_cast<double>(res.failed) / static_cast<double>(res.attempted), "share");
  add_tail_metrics(res.metrics, first);
}

void run_sim(const Options& opts, Result& res) {
  const std::uint64_t subs = sub_seeds(opts.workload);
  std::vector<SimPlan> plans;
  for (std::uint64_t k = 0; k < subs; ++k) {
    plans.push_back(plan_for(opts.workload, sub_seed(opts.seed, k)));
  }
  if (opts.trace) {
    add_traced_sim_metrics(res, plans);
    return;
  }

  const double deadline = wall_s() + opts.seconds;
  std::vector<Execution> first;
  std::vector<double> setup, rate, cpu;
  auto sample = [&](const Execution& e) {
    setup.push_back(e.setup_s);
    rate.push_back(static_cast<double>(e.committed) / e.run_wall_s);
    cpu.push_back(e.run_cpu_s * 1e6 / static_cast<double>(e.committed));
    res.attempted += e.submitted;
    res.failed += e.failed;
  };
  for (const SimPlan& plan : plans) {
    first.push_back(execute(plan, nullptr));
    check_execution(first.back(), "seed " + std::to_string(plan.config.seed));
    sample(first.back());
  }
  // Repetitions: every one must reproduce its first-pass fingerprint.
  // Another one starts only when it should end within the budget.
  std::size_t i = 0;
  do {
    const std::size_t k = i++ % subs;
    const Execution e = execute(plans[k], nullptr);
    check_execution(e, "repeat of seed " + std::to_string(plans[k].config.seed));
    if (e.fingerprint() != first[k].fingerprint()) {
      throw CheckFailed{"seed " + std::to_string(plans[k].config.seed) +
                        " is not deterministic: " + first[k].fingerprint() + " vs " +
                        e.fingerprint()};
    }
    sample(e);
  } while (wall_s() + first[i % subs].setup_s + first[i % subs].run_wall_s <
           deadline);
  std::printf("# executions: %zu (%llu sub-seeds)\n", setup.size(),
              static_cast<unsigned long long>(subs));
  res.metrics.add("committed_tx_per_s", median(rate), "tx/s");
  res.metrics.add("cpu_us_per_committed_tx", median(cpu), "us");
  add_outcome_metrics(res.metrics, first);
  res.metrics.add("setup_s", median(setup), "s");
  res.metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
