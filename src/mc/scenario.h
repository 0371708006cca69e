// Model-checking scenarios: small, fixed object graphs with a short mutator
// script whose every step is a schedulable choice point.
//
// A scenario is rebuilt from scratch on a fresh Runtime for every explored
// schedule, so a (scenario, seed, decision list) triple reproduces a run
// bit-for-bit. Most scenarios wrap the paper's figures (sim/scenarios.h);
// `race` is the Fig. 2 mutator-vs-DCDA race in its minimal three-process
// form — the scenario the planted-bug self-test runs on; `nss` is the
// acyclic reference-listing protocol under NewSetStubs loss and reordering.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "src/common/config.h"
#include "src/rt/runtime.h"

namespace adgc::mc {

enum class ScenarioKind { kFig1, kFig3, kFig4, kFig5, kRace, kEvict, kNss };

const char* scenario_name(ScenarioKind kind);
std::optional<ScenarioKind> parse_scenario(const std::string& name);

class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual ScenarioKind kind() const = 0;
  virtual std::size_t num_procs() const = 0;
  /// Builds the object graph on `rt` and takes one baseline snapshot per
  /// process (the DCDA needs an initial summarized view). Must be callable
  /// repeatedly, once per fresh Runtime.
  virtual void build(Runtime& rt) = 0;

  /// Number of scripted mutator steps. Step i may only run after step i-1
  /// (the Explorer offers them in order), but arbitrarily interleaved with
  /// every other choice.
  virtual std::size_t script_size() const = 0;
  virtual void apply_script(Runtime& rt, std::size_t step) = 0;
  /// The process whose mutator performs `step`. The Explorer only offers a
  /// script step while that process is alive and has never crashed — a
  /// crashed mutator's pending actions die with it (and a cold restart may
  /// have lost the very objects the step names).
  virtual ProcessId script_proc(std::size_t step) const = 0;

  /// Objects that must survive a fault-free schedule once the full script
  /// has run and the system has settled (completeness oracle input).
  virtual std::size_t expected_survivors() const = 0;

  /// Scenario-specific config overrides applied on top of mc_config().
  /// The evict scenario uses this to arm peer_death_timeout_us so the
  /// Explorer's LGC decisions double as eviction choice points.
  virtual void tune_config(RuntimeConfig&) const {}

  /// Whether the liveness/completeness oracle is decidable for fault-free
  /// schedules of this scenario. The evict scenario returns false: an
  /// eviction deliberately reclaims objects that are still reachable
  /// through the evicted peer, so only the safety oracles apply.
  virtual bool check_liveness() const { return true; }

  std::string name() const { return scenario_name(kind()); }
};

std::unique_ptr<Scenario> make_scenario(ScenarioKind kind);

/// The model checker's RuntimeConfig: every periodic collector pushed to
/// effective infinity (the Explorer schedules LGC/snapshot/scan explicitly),
/// zero quarantine so candidates are eligible immediately, adaptive backoff
/// and batching off (their timers would only bloat the choice space), a
/// finite detection timeout the settle phase can step over, and deterministic
/// minimum latency (the fate hook supplies per-message latency anyway).
RuntimeConfig mc_config(std::uint64_t seed);

/// Timer/event horizon: pending events at or beyond this timestamp are the
/// migrated far-future periodic timers, not real schedulable work.
inline constexpr SimTime kFarFuture = 100'000'000'000ULL;  // 1e11 us

}  // namespace adgc::mc
