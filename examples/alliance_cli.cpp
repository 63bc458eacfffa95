// alliance_cli — run a configurable RepChain scenario from the command line.
//
//   alliance_cli [--providers N] [--collectors N] [--governors N] [--r N]
//                [--rounds N] [--txs N] [--p-valid F] [--f F] [--beta F]
//                [--seed N] [--adversaries N] [--concealers N] [--forgers N]
//                [--equivocators N] [--gossip] [--visibility F] [--quiet]
//
// Remaining collectors are honest. Prints the scenario summary, per-governor
// screening statistics and the collector standings.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/scenario.hpp"

using namespace repchain;
using protocol::CollectorBehavior;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --providers N     providers l (default 8)\n"
      "  --collectors N    collectors n (default 4)\n"
      "  --governors N     governors m (default 3)\n"
      "  --r N             collectors per provider (default 2)\n"
      "  --rounds N        rounds to run (default 10)\n"
      "  --txs N           txs per provider per round (default 2)\n"
      "  --p-valid F       ground-truth valid fraction (default 0.8)\n"
      "  --f F             screening efficiency knob (default 0.5)\n"
      "  --beta F          reputation discount beta (default 0.9)\n"
      "  --seed N          scenario seed (default 1)\n"
      "  --adversaries N   label-inverting collectors (default 0)\n"
      "  --concealers N    collectors dropping 50%% of txs (default 0)\n"
      "  --forgers N       collectors forging 30%% extra txs (default 0)\n"
      "  --equivocators N  collectors equivocating across governors (default 0)\n"
      "  --gossip          enable equivocation-detection label gossip\n"
      "  --visibility F    fraction of collectors each governor sees (default 1)\n"
      "  --quiet           summary only\n",
      argv0);
  std::exit(2);
}

// Numeric flag values must parse whole: an empty value or trailing garbage
// ("abc", "3x") is a usage error, never a silent zero. Sizes also refuse a
// sign, which strtoull would otherwise wrap to a huge count.
bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}
bool parse_size(const char* s, std::size_t& out) {
  if (*s == '-' || *s == '+') return false;
  char* end = nullptr;
  out = static_cast<std::size_t>(std::strtoull(s, &end, 10));
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  sim::ScenarioConfig cfg;
  cfg.topology = {8, 4, 3, 2};
  cfg.rounds = 10;
  std::size_t adversaries = 0, concealers = 0, forgers = 0, equivocators = 0;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    auto size_value = [&](const char* flag) {
      const char* s = need_value(flag);
      std::size_t v = 0;
      if (!parse_size(s, v)) {
        std::fprintf(stderr, "bad value for %s: '%s'\n", flag, s);
        usage(argv[0]);
      }
      return v;
    };
    auto double_value = [&](const char* flag) {
      const char* s = need_value(flag);
      double v = 0.0;
      if (!parse_double(s, v)) {
        std::fprintf(stderr, "bad value for %s: '%s'\n", flag, s);
        usage(argv[0]);
      }
      return v;
    };
    const std::string arg = argv[i];
    if (arg == "--providers") {
      cfg.topology.providers = size_value("--providers");
    } else if (arg == "--collectors") {
      cfg.topology.collectors = size_value("--collectors");
    } else if (arg == "--governors") {
      cfg.topology.governors = size_value("--governors");
    } else if (arg == "--r") {
      cfg.topology.r = size_value("--r");
    } else if (arg == "--rounds") {
      cfg.rounds = size_value("--rounds");
    } else if (arg == "--txs") {
      cfg.txs_per_provider_per_round = size_value("--txs");
    } else if (arg == "--p-valid") {
      cfg.p_valid = double_value("--p-valid");
    } else if (arg == "--f") {
      cfg.governor.rep.f = double_value("--f");
    } else if (arg == "--beta") {
      cfg.governor.rep.beta = double_value("--beta");
    } else if (arg == "--seed") {
      cfg.seed = size_value("--seed");
    } else if (arg == "--adversaries") {
      adversaries = size_value("--adversaries");
    } else if (arg == "--concealers") {
      concealers = size_value("--concealers");
    } else if (arg == "--forgers") {
      forgers = size_value("--forgers");
    } else if (arg == "--equivocators") {
      equivocators = size_value("--equivocators");
    } else if (arg == "--gossip") {
      cfg.enable_label_gossip = true;
    } else if (arg == "--visibility") {
      cfg.governor_visibility = double_value("--visibility");
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }

  const std::size_t bad = adversaries + concealers + forgers + equivocators;
  if (bad > cfg.topology.collectors) {
    std::fprintf(stderr, "more misbehaving collectors than collectors\n");
    return 2;
  }
  for (std::size_t i = 0; i < adversaries; ++i) {
    cfg.behaviors.push_back(CollectorBehavior::adversarial());
  }
  for (std::size_t i = 0; i < concealers; ++i) {
    cfg.behaviors.push_back(CollectorBehavior::concealing(0.5));
  }
  for (std::size_t i = 0; i < forgers; ++i) {
    cfg.behaviors.push_back(CollectorBehavior::forging(0.3));
  }
  for (std::size_t i = 0; i < equivocators; ++i) {
    cfg.behaviors.push_back(CollectorBehavior::equivocating());
  }
  while (!cfg.behaviors.empty() && cfg.behaviors.size() < cfg.topology.collectors) {
    cfg.behaviors.push_back(CollectorBehavior::honest());
  }

  try {
    sim::Scenario scenario(cfg);
    scenario.run();
    const auto s = scenario.summary();

    std::printf("l=%zu n=%zu m=%zu r=%zu s=%zu | rounds=%zu f=%.2f beta=%.2f seed=%llu\n",
                cfg.topology.providers, cfg.topology.collectors, cfg.topology.governors,
                cfg.topology.r, cfg.topology.s(), cfg.rounds, cfg.governor.rep.f,
                cfg.governor.rep.beta, static_cast<unsigned long long>(cfg.seed));
    std::printf("txs=%llu blocks=%llu valid=%llu unchecked=%llu argued=%llu "
                "validations=%llu\n",
                static_cast<unsigned long long>(s.txs_submitted),
                static_cast<unsigned long long>(s.blocks),
                static_cast<unsigned long long>(s.chain_valid_txs),
                static_cast<unsigned long long>(s.chain_unchecked_txs),
                static_cast<unsigned long long>(s.chain_argued_txs),
                static_cast<unsigned long long>(s.validations_total));
    std::printf("agreement=%s audit=%s messages=%llu (%llu dropped)\n",
                s.agreement ? "yes" : "NO", s.chains_audit_ok ? "pass" : "FAIL",
                static_cast<unsigned long long>(s.network.messages_sent),
                static_cast<unsigned long long>(s.network.messages_dropped));
    if (quiet) return s.agreement && s.chains_audit_ok ? 0 : 1;

    std::printf("\nper-governor screening:\n");
    for (auto& g : scenario.governors()) {
      const auto& st = g->screening_stats();
      std::printf("  governor %u: screened=%llu checked=%llu unchecked=%llu "
                  "mistakes=%llu forgeries=%llu equivocations=%llu\n",
                  g->id().value(), static_cast<unsigned long long>(st.screened),
                  static_cast<unsigned long long>(st.checked),
                  static_cast<unsigned long long>(st.unchecked),
                  static_cast<unsigned long long>(g->metrics().mistakes),
                  static_cast<unsigned long long>(g->metrics().forgeries_detected),
                  static_cast<unsigned long long>(g->metrics().equivocations_detected));
    }

    std::printf("\ncollector standings (governor 0):\n");
    for (const auto& [c, share] : scenario.governor(0).revenue_shares()) {
      std::printf("  collector %u: share=%6.2f%% misreport=%+lld forge=%+lld "
                  "reward=%.2f\n",
                  c.value(), share * 100.0,
                  static_cast<long long>(
                      scenario.governor(0).reputation().misreport(c)),
                  static_cast<long long>(
                      scenario.governor(0).reputation().forge(c)),
                  scenario.collector_rewards()[c.value()]);
    }
    return s.agreement && s.chains_audit_ok ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
