// Property-based tests: the collector's two fundamental properties over
// randomized distributed mutator workloads, swept across seeds, process
// counts, and network fault levels (parameterized gtest).
//
//   SAFETY       — at no point is a (shadow-oracle) live object missing.
//   COMPLETENESS — once mutation stops, the runtime converges to exactly
//                  the live set: every garbage object (acyclic, cyclic or
//                  hybrid) is reclaimed, and stubs/scions drain accordingly.
#include <gtest/gtest.h>

#include <tuple>

#include "src/mc/explorer.h"
#include "src/mc/oracles.h"
#include "src/mc/strategy.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"
#include "src/sim/workload.h"

namespace adgc {
namespace {

struct PropertyParams {
  std::uint64_t seed;
  std::size_t procs;
  double loss;
  int mutation_rounds;
  bool rmi_edges = false;  // create some edges through real invocations
};

class CollectorProperties : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(CollectorProperties, SafetyAndCompleteness) {
  const PropertyParams p = GetParam();
  RuntimeConfig cfg = sim::fast_config(p.seed);
  cfg.net.loss_probability = p.loss;
  cfg.net.duplicate_probability = p.loss / 3;
  Runtime rt(p.procs, cfg);

  sim::WorkloadParams wp;
  wp.initial_objects_per_proc = 6;
  wp.use_rmi_edges = p.rmi_edges;
  sim::RandomWorkload w(rt, wp, p.seed * 7919 + 1);

  // Phase 1: mutate while the collectors run. Safety checked continuously,
  // both against the shadow oracle (expected live set) and — on loss-free
  // runs — with the model checker's structural frontier check (no dangling
  // edge out of the root-reachable region). Duplicated deliveries can
  // legitimately resurrect a stub after its reference was surrendered, so
  // the structural check only applies when the network cannot duplicate.
  for (int round = 0; round < p.mutation_rounds; ++round) {
    w.steps(20);
    rt.run_for(15'000);
    const auto violation = w.find_safety_violation();
    ASSERT_FALSE(violation.has_value())
        << "SAFETY: live " << to_string(*violation) << " collected; seed=" << p.seed
        << " procs=" << p.procs << " loss=" << p.loss << " round=" << round;
    if (p.loss == 0.0) {
      const auto frontier = mc::check_reachable_intact(rt);
      ASSERT_FALSE(frontier.has_value())
          << *frontier << "; seed=" << p.seed << " round=" << round;
    }
  }

  // Phase 2: mutation stops; collectors must converge. Under loss this can
  // take many protocol rounds (timeouts + retries), so be generous.
  const SimTime settle = p.loss > 0 ? 60'000'000 : 20'000'000;
  rt.run_for(settle);

  const auto violation = w.find_safety_violation();
  ASSERT_FALSE(violation.has_value()) << "SAFETY post-settle: " << to_string(*violation);
  if (p.loss == 0.0) {
    const auto frontier = mc::check_reachable_intact(rt);
    ASSERT_FALSE(frontier.has_value()) << *frontier << " (post-settle); seed=" << p.seed;
    const auto garbage = mc::check_no_garbage(rt);
    EXPECT_FALSE(garbage.has_value()) << *garbage << "; seed=" << p.seed;
  }

  const auto live = w.shadow().live();
  std::size_t total = 0;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) total += rt.proc(pid).heap().size();
  EXPECT_EQ(total, live.size())
      << "COMPLETENESS: " << (total - live.size()) << " garbage objects remain; seed="
      << p.seed << " procs=" << p.procs << " loss=" << p.loss;
}

INSTANTIATE_TEST_SUITE_P(
    CleanNetwork, CollectorProperties,
    ::testing::Values(PropertyParams{1, 2, 0.0, 30}, PropertyParams{2, 3, 0.0, 30},
                      PropertyParams{3, 4, 0.0, 40}, PropertyParams{4, 6, 0.0, 40},
                      PropertyParams{5, 8, 0.0, 30}, PropertyParams{6, 3, 0.0, 60},
                      PropertyParams{7, 5, 0.0, 50}, PropertyParams{8, 4, 0.0, 25}));

INSTANTIATE_TEST_SUITE_P(
    LossyNetwork, CollectorProperties,
    ::testing::Values(PropertyParams{11, 3, 0.05, 25}, PropertyParams{12, 4, 0.10, 25},
                      PropertyParams{13, 5, 0.15, 20}, PropertyParams{14, 3, 0.25, 20}));

// Edges created through real RMI (scion-first handshakes, stub installs)
// instead of the direct construction shortcut. Loss-free: the shadow oracle
// requires deterministic delivery of the invocation effects.
// Seeds 5 and 21 hit the install/invoke/NewSetStubs race: a listing built
// before the holder installed a stub arrived after an invocation through it
// had confirmed the scion, and used to delete it (a live reference left
// dangling; "invocation for collected scion" warnings at the owner).
INSTANTIATE_TEST_SUITE_P(
    RmiEdges, CollectorProperties,
    ::testing::Values(PropertyParams{21, 3, 0.0, 25, true},
                      PropertyParams{22, 4, 0.0, 30, true},
                      PropertyParams{23, 6, 0.0, 25, true},
                      PropertyParams{24, 4, 0.0, 40, true},
                      PropertyParams{5, 3, 0.0, 30, true}));

// A focused adversarial property: randomized *invocation churn* on a fixed
// garbage-to-be cycle while snapshots/detections fire freely. The cycle must
// survive exactly as long as it is invoked from a rooted object, and be
// collected afterwards.
class ChurnRace : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnRace, InvocationChurnNeverCausesFalseCollection) {
  const std::uint64_t seed = GetParam();
  Runtime rt(4, sim::fast_config(seed));
  // driver(P0, rooted) → ring head; ring spans P0..P3.
  const sim::Ring ring = sim::build_ring(rt, 4, 2, /*pin_first=*/false);
  const ObjectSeq driver = rt.proc(0).create_object();
  rt.proc(0).add_root(driver);
  const RefId to_head = rt.link(ObjectId{0, driver}, ring.heads[1]);

  Rng rng(seed);
  // Churn: invoke into the ring at random moments; the ring stays live via
  // the driver's reference the whole time.
  for (int i = 0; i < 60; ++i) {
    rt.proc(0).invoke(driver, to_head, InvokeEffect::kTouch);
    rt.run_for(5'000 + rng.below(20'000));
    ASSERT_TRUE(rt.proc(1).heap().exists(ring.heads[1].seq)) << "i=" << i;
  }
  // Release and settle: now it is garbage and must go.
  rt.proc(0).remove_remote_ref(driver, to_head);
  rt.run_for(20'000'000);
  std::size_t total = 0;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) total += rt.proc(pid).heap().size();
  EXPECT_EQ(total, 1u);  // only the driver object remains
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnRace, ::testing::Values(101, 202, 303, 404, 505));

// PCT schedule sweep: the same properties, but over *systematically*
// perturbed schedules instead of the simulator's single random one. Ten
// seeds of randomized-priority exploration on the adversarial scenarios;
// the Explorer checks the shared safety oracle after every decision and
// the completeness oracle after each schedule settles.
class PctSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PctSweep, RandomPrioritySchedulesHoldBothProperties) {
  const std::uint64_t seed = GetParam();
  for (const mc::ScenarioKind scenario :
       {mc::ScenarioKind::kRace, mc::ScenarioKind::kFig3}) {
    mc::ExplorerOptions opts;
    opts.scenario = scenario;
    opts.seed = seed;
    opts.max_steps = 16;
    opts.max_schedules = 60;
    mc::Explorer explorer(opts);
    mc::PctStrategy strategy(seed, /*change_points=*/3, opts.max_steps);
    const mc::ExploreResult res = explorer.explore(strategy);
    EXPECT_FALSE(res.failure.has_value())
        << mc::scenario_name(scenario) << " seed " << seed << ": "
        << *res.failure->violation;
  }
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, PctSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace adgc
