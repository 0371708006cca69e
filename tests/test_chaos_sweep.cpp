// Composed chaos: sustained loss + duplication + reordering + rotating link
// partitions + crash rotation, with the planted-structure oracle asserting
// safety (no sentinel lost) and completeness (all planted cycles reclaimed)
// per seed — plus the backoff-vs-fixed retry-traffic comparison.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/sim/chaos_sweep.h"

namespace adgc {
namespace {

/// Nightly CI scales the sweep without a rebuild: ADGC_SOAK_MULTIPLIER=N
/// appends N extra batches of 10 seeds each.
int soak_multiplier() {
  const char* env = std::getenv("ADGC_SOAK_MULTIPLIER");
  if (!env) return 1;
  const int m = std::atoi(env);
  return m > 0 ? m : 1;
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, SurvivesComposedFaults) {
  sim::ChaosSweepParams p;
  p.seed = GetParam();
  const sim::ChaosSweepResult res = sim::run_chaos_sweep(p);
  EXPECT_FALSE(res.live_lost) << "SAFETY seed=" << p.seed << ": " << res.detail;
  EXPECT_TRUE(res.cycles_collected)
      << "COMPLETENESS seed=" << p.seed << ": " << res.detail;
  EXPECT_EQ(res.crashes, res.recovered) << "a restart failed to recover";
  EXPECT_GT(res.messages_lost, 0u) << "the storm did not actually bite";
  EXPECT_TRUE(res.healthy_warmup()) << "seed=" << p.seed << ": " << res.detail;
}

// The acceptance bar: ≥10 seeds at 10% loss / 5% duplication with rotating
// partitions and crashes.
INSTANTIATE_TEST_SUITE_P(TenSeeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(ChaosSweep, NightlyExtraSeeds) {
  const int extra_batches = soak_multiplier() - 1;
  for (int b = 0; b < extra_batches; ++b) {
    for (std::uint64_t s = 0; s < 10; ++s) {
      sim::ChaosSweepParams p;
      p.seed = 1000 + static_cast<std::uint64_t>(b) * 10 + s;
      const sim::ChaosSweepResult res = sim::run_chaos_sweep(p);
      ASSERT_TRUE(res.ok()) << "seed=" << p.seed << ": " << res.detail;
    }
  }
}

// Batching changes the wire shape of the whole control plane (CDMs,
// NewSetStubs and AddScion acks ride in per-peer batch frames that are
// dropped whole on corruption or stale incarnations). The degradation
// oracles must hold in both wire shapes; one seed each way keeps the
// differential cheap — the TenSeeds sweep above already runs the
// default-on shape across ten seeds.
TEST(ChaosSweep, DegradationOraclesHoldWithAndWithoutBatching) {
  for (const bool batching : {true, false}) {
    sim::ChaosSweepParams p;
    p.seed = 3;
    p.batching = batching;
    const sim::ChaosSweepResult res = sim::run_chaos_sweep(p);
    EXPECT_FALSE(res.live_lost)
        << "SAFETY batching=" << batching << ": " << res.detail;
    EXPECT_TRUE(res.cycles_collected)
        << "COMPLETENESS batching=" << batching << ": " << res.detail;
    EXPECT_EQ(res.crashes, res.recovered) << "batching=" << batching;
    EXPECT_GT(res.messages_lost, 0u) << "batching=" << batching;
  }
}

// The asynchronous snapshot pipeline defers every periodic summary publish
// by snapshot_pipeline_latency_us, so detections run against a view one
// publish older than the synchronous path would install — exactly the stale
// views §4's IC rules are built to reject. The degradation oracles must hold
// with the pipeline on and off; one seed each way keeps the differential
// cheap (TenSeeds above already storms the default-on shape).
TEST(ChaosSweep, DegradationOraclesHoldWithAndWithoutPipeline) {
  for (const bool pipeline : {true, false}) {
    sim::ChaosSweepParams p;
    p.seed = 7;
    p.snapshot_pipeline = pipeline;
    const sim::ChaosSweepResult res = sim::run_chaos_sweep(p);
    EXPECT_FALSE(res.live_lost)
        << "SAFETY snapshot_pipeline=" << pipeline << ": " << res.detail;
    EXPECT_TRUE(res.cycles_collected)
        << "COMPLETENESS snapshot_pipeline=" << pipeline << ": " << res.detail;
    EXPECT_EQ(res.crashes, res.recovered) << "snapshot_pipeline=" << pipeline;
    EXPECT_GT(res.messages_lost, 0u) << "snapshot_pipeline=" << pipeline;
  }
}

// Permanent-failure eviction armed during the same storm must be a no-op:
// a peer_death_timeout comfortably above every transient silence the sweep
// injects (partitions and crash downtime are both well under a second) may
// never fire a false eviction, so the safety and completeness oracles must
// hold exactly as in the eviction-disabled baseline.
TEST(ChaosSweep, EvictionArmedMatchesDisabledBaseline) {
  for (const SimTime timeout_us : {SimTime{0}, SimTime{5'000'000}}) {
    sim::ChaosSweepParams p;
    p.seed = 5;
    p.peer_death_timeout_us = timeout_us;
    const sim::ChaosSweepResult res = sim::run_chaos_sweep(p);
    EXPECT_FALSE(res.live_lost)
        << "SAFETY eviction_timeout_us=" << timeout_us << ": " << res.detail;
    EXPECT_TRUE(res.cycles_collected)
        << "COMPLETENESS eviction_timeout_us=" << timeout_us << ": " << res.detail;
    EXPECT_EQ(res.crashes, res.recovered) << "eviction_timeout_us=" << timeout_us;
  }
}

class BackoffComparisonTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackoffComparisonTest, AdaptiveSendsFewerRetries) {
  const sim::BackoffComparison c = sim::run_backoff_comparison(GetParam());
  EXPECT_TRUE(c.adaptive_reduced())
      << "adaptive retries=" << c.adaptive_retry_messages
      << " (total=" << c.adaptive_total_messages << ")"
      << " vs fixed retries=" << c.fixed_retry_messages
      << " (total=" << c.fixed_total_messages << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackoffComparisonTest,
                         ::testing::Values(1, 4, 7));

}  // namespace
}  // namespace adgc
