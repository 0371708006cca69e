// Acyclic distributed GC end-to-end: reference-listing collects acyclic
// distributed garbage, scions pin objects, chains across processes unravel,
// and the DCDA is unnecessary for (and not triggered by) acyclic shapes.
#include <gtest/gtest.h>

#include "src/mc/oracles.h"
#include "src/rt/runtime.h"
#include "src/sim/harness.h"

namespace adgc {
namespace {

TEST(Acyclic, RemoteReferencePinsObject) {
  Runtime rt(2, sim::fast_config(1));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.link(a, b);
  // b has no local root at P1; only the scion keeps it.
  rt.run_for(1'000'000);
  EXPECT_TRUE(rt.proc(1).heap().exists(b.seq));
}

TEST(Acyclic, DroppingLastStubCollectsRemoteObject) {
  Runtime rt(2, sim::fast_config(2));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  const RefId ref = rt.link(a, b);
  rt.run_for(500'000);
  ASSERT_TRUE(rt.proc(1).heap().exists(b.seq));

  rt.proc(0).remove_remote_ref(a.seq, ref);
  rt.run_for(1'000'000);
  EXPECT_FALSE(rt.proc(1).heap().exists(b.seq));
  EXPECT_EQ(rt.proc(1).scions().size(), 0u);
  EXPECT_EQ(rt.proc(0).stubs().size(), 0u);
}

TEST(Acyclic, ChainAcrossProcessesUnravels) {
  // root→a(P0)→b(P1)→c(P2)→d(P3); dropping the root collects all four,
  // one reference-listing round per hop.
  Runtime rt(4, sim::fast_config(3));
  std::vector<ObjectId> objs;
  for (ProcessId pid = 0; pid < 4; ++pid) {
    objs.push_back(ObjectId{pid, rt.proc(pid).create_object()});
  }
  rt.proc(0).add_root(objs[0].seq);
  for (int i = 0; i < 3; ++i) rt.link(objs[i], objs[i + 1]);
  rt.run_for(500'000);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 4u);

  rt.proc(0).remove_root(objs[0].seq);
  rt.run_for(2'000'000);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
  // No cycle detection was needed for acyclic garbage.
  EXPECT_EQ(rt.total_metrics().detections_cycle_found.get(), 0u);
}

TEST(Acyclic, DiamondSharingCollectsOnlyWhenBothDropped) {
  // a(P0) and b(P1) both reference c(P2).
  Runtime rt(3, sim::fast_config(4));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  const ObjectId c{2, rt.proc(2).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(1).add_root(b.seq);
  const RefId ra = rt.link(a, c);
  const RefId rb = rt.link(b, c);
  rt.run_for(500'000);

  rt.proc(0).remove_remote_ref(a.seq, ra);
  rt.run_for(1'000'000);
  EXPECT_TRUE(rt.proc(2).heap().exists(c.seq)) << "b still holds c";

  rt.proc(1).remove_remote_ref(b.seq, rb);
  rt.run_for(1'000'000);
  EXPECT_FALSE(rt.proc(2).heap().exists(c.seq));
}

TEST(Acyclic, SharedStubSingleScion) {
  // Two objects of P0 hold the SAME reference to b: one scion at P1; it
  // dies only when both holders are gone.
  Runtime rt(2, sim::fast_config(5));
  const ObjectId a1{0, rt.proc(0).create_object()};
  const ObjectId a2{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a1.seq);
  rt.proc(0).add_root(a2.seq);
  const RefId ref = rt.link(a1, b);
  rt.proc(0).hold_existing_ref(a2.seq, ref);
  rt.run_for(500'000);
  EXPECT_EQ(rt.proc(1).scions().size(), 1u);

  rt.proc(0).remove_root(a1.seq);
  rt.run_for(1'000'000);
  EXPECT_TRUE(rt.proc(1).heap().exists(b.seq));

  rt.proc(0).remove_root(a2.seq);
  rt.run_for(1'000'000);
  EXPECT_FALSE(rt.proc(1).heap().exists(b.seq));
}

TEST(Acyclic, LocalGarbageWithStubsReleasesRemote) {
  // A locally-unreachable subgraph at P0 holds the only reference to b:
  // P0's LGC reclaims the subgraph, the next NewSetStubs round releases b.
  Runtime rt(2, sim::fast_config(6));
  const ObjectId junk{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.link(junk, b);  // junk has no root at all
  rt.run_for(2'000'000);
  EXPECT_FALSE(rt.proc(0).heap().exists(junk.seq));
  EXPECT_FALSE(rt.proc(1).heap().exists(b.seq));
}

TEST(Acyclic, SelfScionHarmless) {
  // Exporting one's own object to oneself (degenerate) must not wedge.
  Runtime rt(2, sim::fast_config(7));
  const ObjectId a{0, rt.proc(0).create_object()};
  rt.proc(0).add_root(a.seq);
  const ExportedRef er = rt.proc(0).export_own_object(a.seq, /*holder=*/0);
  (void)er;
  rt.run_for(1'500'000);
  EXPECT_TRUE(rt.proc(0).heap().exists(a.seq));
}

TEST(Acyclic, StressManySmallExports) {
  // 200 objects exported P0→P1 then half dropped: exactly the dropped half
  // is collected.
  Runtime rt(2, sim::fast_config(8));
  const ObjectId holder{1, rt.proc(1).create_object()};
  rt.proc(1).add_root(holder.seq);
  std::vector<std::pair<ObjectSeq, RefId>> items;
  for (int i = 0; i < 200; ++i) {
    const ObjectSeq o = rt.proc(0).create_object();
    const RefId ref = rt.link(holder, ObjectId{0, o});
    items.emplace_back(o, ref);
  }
  rt.run_for(500'000);
  EXPECT_EQ(rt.proc(0).heap().size(), 200u);

  for (int i = 0; i < 200; i += 2) {
    rt.proc(1).remove_remote_ref(holder.seq, items[i].second);
  }
  rt.run_for(2'000'000);
  EXPECT_EQ(rt.proc(0).heap().size(), 100u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rt.proc(0).heap().exists(items[i].first), i % 2 == 1) << i;
  }
}

bool is_nss(const Envelope& e) {
  return !e.bytes.empty() &&
         e.bytes[0] == static_cast<std::byte>(MessageTag::kNewSetStubs);
}

// The install/invoke/NewSetStubs race, driven deterministically. P1 already
// lists its stubs toward P0 when it builds a listing; the listing is held
// back in the network while P0 exports X to P1 and P1 invokes through the
// fresh stub. The invocation confirms X's scion at P0, then the held-back
// listing — fresh export_seq, built before the install, so it omits X —
// arrives. It must not delete the scion: P1's live h still holds the stub.
TEST(Acyclic, ListingBuiltBeforeInstallCannotDeleteInvokedScion) {
  RuntimeConfig cfg = sim::manual_config(41);
  cfg.proc.batching_enabled = false;  // every listing is its own envelope
  Runtime rt(2, cfg);
  const ObjectId x{0, rt.proc(0).create_object()};
  const ObjectId big_x{0, rt.proc(0).create_object()};
  const ObjectId y{0, rt.proc(0).create_object()};
  const ObjectId h{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(x.seq);
  rt.proc(0).add_local_ref(x.seq, big_x.seq);
  rt.proc(1).add_root(h.seq);
  const RefId x_to_h = rt.link(x, h);
  rt.link(h, y);  // P0 is already P1's listing contact

  // Listings take 5 ms (inside the 10 ms pending grace), everything else
  // 10 us: the listing P1 builds now lands after the call and invocation.
  rt.network().set_fate_hook([](const Envelope& e) {
    return SimNetwork::Fate{false, false, is_nss(e) ? SimTime{5'000} : SimTime{10}};
  });
  rt.proc(1).run_lgc();  // listing {h->y}: built before the install
  rt.proc(0).invoke(x.seq, x_to_h, InvokeEffect::kStoreArgs, {ArgRef::own(big_x.seq)});
  rt.run_for(100);
  RefId r = kNoRef;
  for (const auto& [ref, stub] : rt.proc(1).stubs()) {
    if (stub.target == big_x) r = ref;
  }
  ASSERT_NE(r, kNoRef) << "the call carrying X was not installed";
  rt.proc(1).invoke(h.seq, r, InvokeEffect::kTouch);
  rt.run_for(100);
  ASSERT_TRUE(rt.proc(0).scions().find(r)->confirmed);

  rt.run_for(10'000);  // the stale-content listing arrives
  EXPECT_GE(rt.total_metrics().new_set_stubs_received.get(), 1u);
  EXPECT_TRUE(rt.proc(0).scions().contains(r));
  EXPECT_FALSE(mc::check_reachable_intact(rt).has_value());
  EXPECT_EQ(rt.total_metrics().invocations_dropped.get(), 0u);

  // The next listing names X; from then on absence is authoritative again.
  rt.proc(1).run_lgc();
  rt.run_for(10'000);
  EXPECT_TRUE(rt.proc(0).scions().contains(r));
  rt.proc(1).remove_remote_ref(h.seq, r);
  rt.proc(1).run_lgc();
  rt.run_for(10'000);
  EXPECT_FALSE(rt.proc(0).scions().contains(r));
}

// An idle holder leases its listing once per grace period instead of once
// per LGC, and an owner it stopped referencing stops hearing from it once
// the empty set has gone out past the grace.
TEST(Acyclic, IdleListingIsLeasedAndRetired) {
  RuntimeConfig cfg = sim::fast_config(42);  // LGC 5 ms, grace 60 ms, expiry 600 ms
  Runtime rt(2, cfg);
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  const RefId ref = rt.link(a, b);
  rt.run_for(1'000'000);  // past the young-stub window

  const auto nss = [&] { return rt.total_metrics().new_set_stubs_sent.get(); };
  const std::uint64_t before = nss();
  rt.run_for(1'200'000);  // 240 LGCs, 20 leases
  const std::uint64_t leased = nss() - before;
  EXPECT_GE(leased, 18u);
  EXPECT_LE(leased, 22u);
  EXPECT_TRUE(rt.proc(1).heap().exists(b.seq));
  EXPECT_EQ(rt.total_metrics().nss_solicits_sent.get(), 0u);

  rt.proc(0).remove_remote_ref(a.seq, ref);
  rt.run_for(1'000'000);
  EXPECT_FALSE(rt.proc(1).heap().exists(b.seq));
  const std::uint64_t retired = nss();
  rt.run_for(2'000'000);
  EXPECT_EQ(nss(), retired) << "a retired contact is still being listed";
  EXPECT_EQ(rt.total_metrics().peer_suspect_transitions.get(), 0u);
}

// The retiring empty listing is lost: the owner still holds a confirmed
// scion nobody backs, and the holder will never list it again on its own.
// After two silent leases the owner solicits, and the (empty) answer
// deletes the scion.
TEST(Acyclic, LostRetiringListingIsRecoveredBySolicit) {
  RuntimeConfig cfg = sim::fast_config(43);
  Runtime rt(2, cfg);
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  const RefId ref = rt.link(a, b);
  rt.run_for(1'000'000);
  ASSERT_TRUE(rt.proc(1).scions().find(ref)->confirmed);

  bool dropping = true;
  rt.network().set_fate_hook([&](const Envelope& e) {
    return SimNetwork::Fate{dropping && is_nss(e), false, 200};
  });
  rt.proc(0).remove_remote_ref(a.seq, ref);
  rt.run_for(500'000);  // every listing toward P1 is lost; P0 retires P1
  dropping = false;
  ASSERT_TRUE(rt.proc(1).scions().contains(ref));
  const std::uint64_t solicits = rt.total_metrics().nss_solicits_sent.get();
  rt.run_for(500'000);
  EXPECT_GT(rt.total_metrics().nss_solicits_sent.get(), solicits);
  EXPECT_FALSE(rt.proc(1).scions().contains(ref));
  EXPECT_FALSE(rt.proc(1).heap().exists(b.seq));
}

}  // namespace
}  // namespace adgc
