// Model-checking harness: trace codec, strategies, oracles, bounded
// exploration of the paper's scenarios, the planted-bug self-test (search →
// shrink → deterministic replay), and the checked-in counterexample corpus.
//
// Bounds are tier-1 sized; ADGC_SOAK_MULTIPLIER (CI nightly) scales the
// schedule budgets up without changing the assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "src/mc/explorer.h"
#include "src/mc/oracles.h"
#include "src/mc/shrink.h"
#include "src/sim/harness.h"

namespace adgc::mc {
namespace {

std::uint64_t soak_mult() {
  const char* env = std::getenv("ADGC_SOAK_MULTIPLIER");
  if (!env) return 1;
  const std::uint64_t m = std::strtoull(env, nullptr, 10);
  return m > 0 ? m : 1;
}

// ---------------------------------------------------------------- trace codec

TEST(McTrace, RoundTripsThroughCodec) {
  Trace t;
  t.scenario = "fig3";
  t.seed = 99;
  t.max_steps = 60;
  t.unsafe_no_ic = true;
  t.snapshot_pipeline_latency_us = 250;
  t.note = "hand-made";
  t.decisions = {
      {DecisionKind::kScript, 0, 0, 0},
      {DecisionKind::kDeliver, 1, 2, 3},
      {DecisionKind::kDeliver, kTimerSrc, 0, 0},
      {DecisionKind::kDrop, 2, 0, 9},
      {DecisionKind::kLgc, 0, 0, 0},
      {DecisionKind::kSnapshot, 1, 0, 0},
      {DecisionKind::kScan, 2, 0, 0},
      {DecisionKind::kCrash, 3, 0, 0},
      {DecisionKind::kRestart, 3, 0, 0},
  };
  const std::vector<std::byte> bytes = encode_trace(t);
  const Trace back = decode_trace(bytes);
  EXPECT_EQ(back, t);
}

TEST(McTrace, DecodesVersion1WithPipelineOff) {
  // A v1 trace (recorded before the pipeline latency field existed) must
  // decode with snapshot_pipeline_latency_us = 0 — the semantics it was
  // recorded under.
  ByteWriter w;
  w.u32(0x4D435452);  // 'MCTR'
  w.u16(1);
  w.str("fig3");
  w.u64(7);
  w.u32(20);
  w.boolean(false);
  w.str("legacy");
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(DecisionKind::kLgc));
  w.u32(0);
  w.u32(0);
  w.u32(0);
  const Trace t = decode_trace(w.take());
  EXPECT_EQ(t.scenario, "fig3");
  EXPECT_EQ(t.seed, 7u);
  EXPECT_EQ(t.snapshot_pipeline_latency_us, 0u);
  ASSERT_EQ(t.decisions.size(), 1u);
  EXPECT_EQ(t.decisions[0].kind, DecisionKind::kLgc);
}

TEST(McTrace, RejectsCorruptInput) {
  Trace t;
  t.scenario = "race";
  t.decisions = {{DecisionKind::kDeliver, 0, 1, 2}};
  std::vector<std::byte> bytes = encode_trace(t);

  std::vector<std::byte> bad_magic = bytes;
  bad_magic[0] ^= std::byte{0xff};
  EXPECT_THROW(decode_trace(bad_magic), DecodeError);

  std::vector<std::byte> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_THROW(decode_trace(truncated), DecodeError);

  std::vector<std::byte> bad_kind = bytes;
  bad_kind[bytes.size() - 13] = std::byte{0x77};  // the decision's kind byte
  EXPECT_THROW(decode_trace(bad_kind), DecodeError);

  EXPECT_THROW(decode_trace(std::span<const std::byte>{}), DecodeError);
}

TEST(McTrace, SaveLoadFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "adgc_mc_trace_test.trace";
  Trace t;
  t.scenario = "fig4";
  t.max_steps = 12;
  t.decisions = {{DecisionKind::kLgc, 1, 0, 0}, {DecisionKind::kScan, 1, 0, 0}};
  ASSERT_TRUE(save_trace(t, path.string()));
  const auto back = load_trace(path.string());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
  std::filesystem::remove(path);
  EXPECT_FALSE(load_trace(path.string()).has_value());
}

// ---------------------------------------------------------------- oracles

TEST(McOracles, CleanWorldPasses) {
  Runtime rt(2, sim::manual_config(7));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.link(a, b);
  EXPECT_FALSE(check_reachable_intact(rt).has_value());
  EXPECT_FALSE(check_no_garbage(rt).has_value());
  EXPECT_FALSE(check_objects_exist(rt, {a, b}).has_value());
}

TEST(McOracles, DetectsCollectedLiveObject) {
  Runtime rt(2, sim::manual_config(7));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.link(a, b);
  // Simulate a false collection: the remotely-held target vanishes.
  rt.proc(1).heap().remove(b.seq);
  const auto violation = check_reachable_intact(rt);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("SAFETY"), std::string::npos);
  EXPECT_TRUE(check_objects_exist(rt, {b}).has_value());
}

TEST(McOracles, DetectsLeftoverGarbage) {
  Runtime rt(2, sim::manual_config(7));
  const ObjectId a{0, rt.proc(0).create_object()};
  (void)a;  // unrooted: garbage from birth
  const auto violation = check_no_garbage(rt);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("LIVENESS"), std::string::npos);
}

// ---------------------------------------------------------------- exploration

TEST(McExplore, DfsFig3BoundedIsViolationFree) {
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kFig3;
  opts.max_steps = 14;
  opts.max_schedules = 150 * soak_mult();
  DfsStrategy dfs;
  Explorer ex(opts);
  const ExploreResult res = ex.explore(dfs);
  EXPECT_FALSE(res.failure.has_value())
      << res.failure->violation.value_or("") << "\n"
      << describe(res.failure->trace);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_GT(res.cycles_collected, 0u) << "search never exercised the DCDA";
}

TEST(McExplore, DfsFig1BoundedIsViolationFree) {
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kFig1;
  opts.max_steps = 12;
  opts.max_schedules = 100 * soak_mult();
  DfsStrategy dfs;
  Explorer ex(opts);
  const ExploreResult res = ex.explore(dfs);
  EXPECT_FALSE(res.failure.has_value())
      << res.failure->violation.value_or("") << "\n"
      << describe(res.failure->trace);
}

TEST(McExplore, DelayBoundedDfsRaceIsViolationFree) {
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kRace;
  opts.max_steps = 16;
  opts.max_schedules = 200 * soak_mult();
  DfsStrategy delay_bounded(/*delay_bound=*/2);
  Explorer ex(opts);
  const ExploreResult res = ex.explore(delay_bounded);
  EXPECT_FALSE(res.failure.has_value())
      << res.failure->violation.value_or("") << "\n"
      << describe(res.failure->trace);
  // With the counters on, the Fig. 2 race must be caught by rule 3 in at
  // least one explored schedule.
  EXPECT_GT(res.detections_aborted_ic + res.cycles_collected, 0u);
}

TEST(McExplore, PctFig4SeedsAreViolationFree) {
  for (std::uint64_t seed : {11ull, 12ull}) {
    ExplorerOptions opts;
    opts.scenario = ScenarioKind::kFig4;
    opts.seed = seed;
    opts.max_steps = 30;
    opts.max_schedules = 40 * soak_mult();
    PctStrategy pct(seed, /*change_points=*/3, opts.max_steps);
    Explorer ex(opts);
    const ExploreResult res = ex.explore(pct);
    EXPECT_FALSE(res.failure.has_value())
        << "seed " << seed << ": " << res.failure->violation.value_or("") << "\n"
        << describe(res.failure->trace);
  }
}

TEST(McExplore, PctFig5SeedsAreViolationFree) {
  for (std::uint64_t seed : {21ull, 22ull}) {
    ExplorerOptions opts;
    opts.scenario = ScenarioKind::kFig5;
    opts.seed = seed;
    opts.max_steps = 30;
    opts.max_schedules = 40 * soak_mult();
    PctStrategy pct(seed, /*change_points=*/3, opts.max_steps);
    Explorer ex(opts);
    const ExploreResult res = ex.explore(pct);
    EXPECT_FALSE(res.failure.has_value())
        << "seed " << seed << ": " << res.failure->violation.value_or("") << "\n"
        << describe(res.failure->trace);
  }
}

TEST(McExplore, LossBudgetSafetyHolds) {
  // One message drop allowed anywhere: safety must hold on every schedule
  // (liveness is not checked on faulted schedules — a dropped invoke may
  // legitimately leave garbage pinned by a pending scion).
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kRace;
  opts.max_steps = 14;
  opts.max_schedules = 200 * soak_mult();
  opts.loss_budget = 1;
  DfsStrategy dfs;
  Explorer ex(opts);
  const ExploreResult res = ex.explore(dfs);
  EXPECT_FALSE(res.failure.has_value())
      << res.failure->violation.value_or("") << "\n"
      << describe(res.failure->trace);
}

// Reference listing under NewSetStubs reordering and loss: the
// install/invoke/listing race (a listing built before the holder installed a
// stub arrives after an invocation through it confirmed the scion), contact
// retirement and readmission, all against the scion-stub-backing oracle.
// PCT rather than DFS: the race needs an early listing held back across
// several later deliveries, which bounded DFS (reordering only the tail of
// the schedule) does not reach; these seeds find it within a few dozen
// schedules when the invocation is allowed to make absence authoritative.
TEST(McExplore, NssPctSeedsAreViolationFree) {
  for (std::uint32_t loss : {0u, 2u}) {
    for (std::uint64_t seed : {3ull, 4ull, 5ull}) {
      ExplorerOptions opts;
      opts.scenario = ScenarioKind::kNss;
      opts.seed = seed;
      opts.max_steps = 40;
      opts.max_schedules = 300 * soak_mult();
      opts.loss_budget = loss;
      PctStrategy pct(seed, /*change_points=*/3, opts.max_steps);
      Explorer ex(opts);
      const ExploreResult res = ex.explore(pct);
      EXPECT_FALSE(res.failure.has_value())
          << "seed " << seed << " loss " << loss << ": "
          << res.failure->violation.value_or("") << "\n"
          << describe(res.failure->trace);
      EXPECT_GT(res.messages_delivered, 0u);
    }
  }
}

TEST(McExplore, CrashBudgetSafetyHolds) {
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kFig3;
  opts.max_steps = 12;
  opts.max_schedules = 120 * soak_mult();
  opts.crash_budget = 1;
  PctStrategy pct(5, 2, opts.max_steps);
  Explorer ex(opts);
  const ExploreResult res = ex.explore(pct);
  EXPECT_FALSE(res.failure.has_value())
      << res.failure->violation.value_or("") << "\n"
      << describe(res.failure->trace);
}

TEST(McExplore, DfsIsDeterministic) {
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kRace;
  opts.max_steps = 10;
  opts.max_schedules = 60;
  auto run = [&] {
    DfsStrategy dfs;
    Explorer ex(opts);
    return ex.explore(dfs);
  };
  const ExploreResult a = run();
  const ExploreResult b = run();
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.total_decisions, b.total_decisions);
  EXPECT_EQ(a.detections_started, b.detections_started);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
}

// With the pipeline on, a kSnapshot decision only requests the snapshot;
// the summary publish is a pending timer the explorer orders against
// everything else — detections race summary publication as a first-class
// choice point. Safety and (fault-free) completeness must hold across the
// enlarged schedule space.
TEST(McExplore, PublishRaceDfsIsViolationFree) {
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kRace;
  opts.max_steps = 16;
  opts.max_schedules = 200 * soak_mult();
  opts.snapshot_pipeline_latency_us = 50;
  DfsStrategy dfs;
  Explorer ex(opts);
  const ExploreResult res = ex.explore(dfs);
  EXPECT_FALSE(res.failure.has_value())
      << res.failure->violation.value_or("") << "\n"
      << describe(res.failure->trace);
  EXPECT_GT(res.schedules, 0u);
}

TEST(McExplore, PublishRaceTraceReplaysIdentically) {
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kFig3;
  opts.max_steps = 14;
  opts.snapshot_pipeline_latency_us = 100;
  PctStrategy pct(31, /*change_points=*/3, opts.max_steps);
  Explorer ex(opts);
  const ScheduleOutcome out = ex.run_one(pct);
  ASSERT_FALSE(out.violation.has_value()) << *out.violation;
  // The latency knob travels in the trace header, so the schedule replays
  // under the same pipeline semantics it was recorded under.
  EXPECT_EQ(out.trace.snapshot_pipeline_latency_us, 100u);
  const Trace decoded = decode_trace(encode_trace(out.trace));
  EXPECT_EQ(decoded, out.trace);
  const ScheduleOutcome replayed = replay_trace(decoded);
  EXPECT_FALSE(replayed.violation.has_value()) << *replayed.violation;
  EXPECT_EQ(replayed.trace.decisions, out.trace.decisions);
}

// ------------------------------------------------------- planted-bug self-test

// The harness must be able to FIND a real protocol bug: with invocation
// counters disabled (the planted bug), the Fig. 2 race yields a false cycle
// and the safety oracle fires; the trace shrinks to a minimal counterexample
// that replays deterministically — and replays CLEAN once the counters are
// back on, with the race caught by rule 3 instead.
TEST(McSelfTest, PlantedBugIsFoundShrunkAndReplayable) {
  ExplorerOptions opts;
  opts.scenario = ScenarioKind::kRace;
  opts.max_steps = 20;
  opts.max_schedules = 3000;
  opts.unsafe_no_ic = true;
  DfsStrategy dfs;
  Explorer ex(opts);
  const ExploreResult res = ex.explore(dfs);
  ASSERT_TRUE(res.failure.has_value())
      << "planted bug not found in " << res.schedules << " schedules";
  ASSERT_TRUE(res.failure->violation.has_value());
  EXPECT_NE(res.failure->violation->find("SAFETY"), std::string::npos);

  // Shrink to a minimal counterexample.
  ShrinkStats st;
  const Trace minimal = shrink_trace(
      res.failure->trace,
      [](const Trace& t) { return replay_trace(t).violation.has_value(); }, 2000, &st);
  EXPECT_LE(minimal.decisions.size(), 20u) << describe(minimal);
  EXPECT_LE(minimal.decisions.size(), res.failure->trace.decisions.size());
  EXPECT_GT(st.attempts, 0u);

  // Deterministic replay: twice, same violation.
  const ScheduleOutcome r1 = replay_trace(minimal);
  const ScheduleOutcome r2 = replay_trace(minimal);
  ASSERT_TRUE(r1.violation.has_value()) << describe(minimal);
  ASSERT_TRUE(r2.violation.has_value());
  EXPECT_EQ(*r1.violation, *r2.violation);
  EXPECT_EQ(r1.trace, r2.trace);

  // Same schedule with the counters back on: the protocol defends itself —
  // no violation, and the race is rejected by an IC abort.
  Trace fixed = minimal;
  fixed.unsafe_no_ic = false;
  const ScheduleOutcome guarded = replay_trace(fixed);
  EXPECT_FALSE(guarded.violation.has_value())
      << "counters on, still violated: " << *guarded.violation;
  EXPECT_GE(guarded.metrics.detections_aborted_ic.get(), 1u)
      << "expected the planted race to be caught by rule 3";
}

// ---------------------------------------------------------------- corpus

// Checked-in regression corpus: recorded minimal traces replay with the
// outcome their header declares (unsafe_no_ic traces must still violate,
// clean traces must stay clean).
TEST(McCorpus, RecordedTracesReplayAsRecorded) {
  const std::filesystem::path dir = ADGC_MC_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u) << "corpus too small";
  for (const auto& file : files) {
    const auto trace = load_trace(file.string());
    ASSERT_TRUE(trace.has_value()) << file;
    const ScheduleOutcome out = replay_trace(*trace);
    if (trace->unsafe_no_ic) {
      EXPECT_TRUE(out.violation.has_value())
          << file << ": planted-bug trace no longer reproduces\n"
          << describe(*trace);
    } else {
      EXPECT_FALSE(out.violation.has_value())
          << file << ": " << out.violation.value_or("") << "\n" << describe(*trace);
    }
  }
}

}  // namespace
}  // namespace adgc::mc
