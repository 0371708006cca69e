// Unit tests for the acyclic reference-listing protocol: NewSetStubs
// construction/application, confirmation state machine, staleness and grace.
#include <gtest/gtest.h>

#include "src/dgc/reference_listing.h"

namespace adgc {
namespace {

constexpr SimTime kGrace = 1000;

TEST(ReferenceListing, BuildFiltersByOwner) {
  StubTable stubs;
  stubs.ensure(make_ref_id(0, 1), ObjectId{1, 10}, 0);
  stubs.ensure(make_ref_id(0, 2), ObjectId{2, 20}, 0);
  stubs.ensure(make_ref_id(0, 3), ObjectId{1, 30}, 0);

  const NewSetStubsMsg msg = build_new_set_stubs(stubs, /*owner=*/1, /*seq=*/5);
  EXPECT_EQ(msg.export_seq, 5u);
  EXPECT_EQ(msg.live.size(), 2u);
}

TEST(ReferenceListing, ListedScionDeletedWhenUnlisted) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  auto& sc = scions.ensure(ref, /*holder=*/3, /*target=*/7, /*now=*/0);
  sc.confirmed = sc.listed = true;

  NewSetStubsMsg msg;
  msg.export_seq = 1;  // empty live set
  const auto res = apply_new_set_stubs(scions, 3, msg, /*now=*/10, kGrace);
  EXPECT_FALSE(res.stale);
  EXPECT_EQ(res.deleted, 1u);
  EXPECT_FALSE(scions.contains(ref));
}

TEST(ReferenceListing, ListedScionBecomesConfirmed) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, 0);

  NewSetStubsMsg msg;
  msg.export_seq = 1;
  msg.live = {ref};
  const auto res = apply_new_set_stubs(scions, 3, msg, 10, kGrace);
  EXPECT_EQ(res.confirmed, 1u);
  EXPECT_TRUE(scions.find(ref)->confirmed);
  EXPECT_TRUE(scions.find(ref)->listed);
  EXPECT_EQ(res.deleted, 0u);
}

// The install/invoke/NewSetStubs race: the holder builds a listing, THEN
// installs the stub and invokes through it. The invocation confirms the
// scion at the owner before the (reordered, but fresh-sequenced) listing
// that predates the stub arrives. That listing must not delete the scion:
// an invocation proves the reference arrived, not that later listings
// include it. Only a listing that once named the ref makes absence final.
TEST(ReferenceListing, InvocationConfirmedScionSurvivesListingBuiltBeforeInstall) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, /*holder=*/3, /*target=*/7, /*now=*/0).confirmed = true;  // invoked

  NewSetStubsMsg before_install;  // built before the stub existed
  before_install.export_seq = 1;
  const auto res = apply_new_set_stubs(scions, 3, before_install, /*now=*/10, kGrace);
  EXPECT_FALSE(res.stale);
  EXPECT_EQ(res.deleted, 0u);
  ASSERT_TRUE(scions.contains(ref));

  NewSetStubsMsg listing;  // the holder's next listing names it...
  listing.export_seq = 2;
  listing.live = {ref};
  apply_new_set_stubs(scions, 3, listing, 20, kGrace);
  EXPECT_TRUE(scions.find(ref)->listed);

  NewSetStubsMsg dropped;  // ...so a later one without it is authoritative.
  dropped.export_seq = 3;
  EXPECT_EQ(apply_new_set_stubs(scions, 3, dropped, 30, kGrace).deleted, 1u);
  EXPECT_FALSE(scions.contains(ref));
}

TEST(ReferenceListing, InvocationConfirmedUnlistedScionGoesAfterGrace) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, /*now=*/0).confirmed = true;
  NewSetStubsMsg msg;
  msg.export_seq = 1;
  EXPECT_EQ(apply_new_set_stubs(scions, 3, msg, /*now=*/kGrace, kGrace).deleted, 1u);
}

TEST(ReferenceListing, PendingScionProtectedWithinGrace) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, /*now=*/0);

  NewSetStubsMsg msg;
  msg.export_seq = 1;
  const auto res = apply_new_set_stubs(scions, 3, msg, /*now=*/kGrace - 1, kGrace);
  EXPECT_EQ(res.deleted, 0u);
  EXPECT_TRUE(scions.contains(ref));
}

TEST(ReferenceListing, PendingScionCollectedAfterGrace) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, 0);

  NewSetStubsMsg msg;
  msg.export_seq = 1;
  const auto res = apply_new_set_stubs(scions, 3, msg, /*now=*/kGrace + 1, kGrace);
  EXPECT_EQ(res.deleted, 1u);
}

TEST(ReferenceListing, StaleMessageRejected) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  auto& sc = scions.ensure(ref, 3, 7, 0);
  sc.confirmed = true;

  NewSetStubsMsg newer;
  newer.export_seq = 10;
  newer.live = {ref};
  EXPECT_FALSE(apply_new_set_stubs(scions, 3, newer, 5, kGrace).stale);

  NewSetStubsMsg older;  // reordered: computed before, delivered after
  older.export_seq = 4;  // does NOT list the ref
  const auto res = apply_new_set_stubs(scions, 3, older, 6, kGrace);
  EXPECT_TRUE(res.stale);
  EXPECT_TRUE(scions.contains(ref));
}

TEST(ReferenceListing, DuplicateMessageIdempotent) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, 0).confirmed = true;

  NewSetStubsMsg msg;
  msg.export_seq = 2;
  msg.live = {ref};
  EXPECT_FALSE(apply_new_set_stubs(scions, 3, msg, 1, kGrace).stale);
  EXPECT_TRUE(apply_new_set_stubs(scions, 3, msg, 2, kGrace).stale);  // dup
  EXPECT_TRUE(scions.contains(ref));
}

TEST(ReferenceListing, OnlyMatchingHolderAffected) {
  ScionTable scions;
  const RefId r3 = make_ref_id(3, 1);
  const RefId r4 = make_ref_id(4, 1);
  scions.ensure(r3, 3, 7, 0).listed = true;
  scions.ensure(r4, 4, 7, 0).listed = true;

  NewSetStubsMsg msg;
  msg.export_seq = 1;  // empty: deletes everything from holder 3 only
  apply_new_set_stubs(scions, 3, msg, 10, kGrace);
  EXPECT_FALSE(scions.contains(r3));
  EXPECT_TRUE(scions.contains(r4));
}

TEST(ReferenceListing, ExportSeqPerHolder) {
  ScionTable scions;
  EXPECT_TRUE(scions.accept_export_seq(1, 5, 0));
  EXPECT_TRUE(scions.accept_export_seq(2, 3, 0));  // independent counter
  EXPECT_FALSE(scions.accept_export_seq(1, 5, 0));
  EXPECT_TRUE(scions.accept_export_seq(1, 6, 0));
}

TEST(ScionTable, QuietHoldersAreConfirmedAndSilent) {
  ScionTable scions;
  scions.ensure(make_ref_id(1, 1), 1, 10, /*now=*/0).confirmed = true;
  scions.ensure(make_ref_id(2, 1), 2, 11, 0);  // pending: the expiry's job
  EXPECT_TRUE(scions.quiet_holders(/*now=*/99, /*silence=*/100).empty());
  EXPECT_EQ(scions.quiet_holders(100, 100), std::vector<ProcessId>{1});
  // An accepted NewSetStubs restarts the holder's silence.
  ASSERT_TRUE(scions.accept_export_seq(1, 1, /*now=*/150));
  EXPECT_TRUE(scions.quiet_holders(249, 100).empty());
  EXPECT_EQ(scions.quiet_holders(250, 100), std::vector<ProcessId>{1});
}

// ------------------------------------------------------------ holder cadence

constexpr SimTime kLease = 1000;
constexpr SimTime kYoung = 10 * kLease;

std::vector<ProcessId> owners(const std::vector<std::pair<ProcessId, NewSetStubsMsg>>& due) {
  std::vector<ProcessId> out;
  for (const auto& [owner, msg] : due) out.push_back(owner);
  return out;
}

TEST(NssPacer, YoungStubsKeepEveryLgcCadenceThenLeaseOnly) {
  StubTable stubs;
  NssPacer pacer(kLease, kYoung);
  stubs.ensure(make_ref_id(0, 1), ObjectId{1, 1}, /*now=*/0);
  pacer.note_stub(1, 0);
  // Young stub: sent every LGC even though nothing changed.
  EXPECT_EQ(owners(pacer.due(stubs, 10, 0)), std::vector<ProcessId>{1});
  EXPECT_EQ(owners(pacer.due(stubs, 20, 0)), std::vector<ProcessId>{1});
  // Old and unchanged: only the lease sends.
  const SimTime t = kYoung + 100;
  EXPECT_EQ(owners(pacer.due(stubs, t, 0)), std::vector<ProcessId>{1});
  EXPECT_TRUE(pacer.due(stubs, t + kLease - 1, 0).empty());
  EXPECT_EQ(owners(pacer.due(stubs, t + kLease, 0)), std::vector<ProcessId>{1});
}

TEST(NssPacer, ChangeSendsAndSequencesAscend) {
  StubTable stubs;
  NssPacer pacer(kLease, /*young=*/0);
  const RefId a = make_ref_id(0, 1);
  stubs.ensure(a, ObjectId{1, 1}, 0);
  pacer.note_stub(1, 0);
  const auto first = pacer.due(stubs, 10, 0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].second.live, std::vector<RefId>{a});
  EXPECT_TRUE(pacer.due(stubs, 20, 0).empty());  // unchanged, lease not due
  const RefId b = make_ref_id(0, 2);
  stubs.ensure(b, ObjectId{1, 2}, 30);
  pacer.note_stub(1, 30);
  const auto second = pacer.due(stubs, 40, 0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].second.live, (std::vector<RefId>{a, b}));
  EXPECT_GT(second[0].second.export_seq, first[0].second.export_seq);
}

TEST(NssPacer, RetiresOnlyAfterEmptySetSentALeasePastNewestStub) {
  StubTable stubs;
  NssPacer pacer(kLease, /*young=*/0);
  const RefId a = make_ref_id(0, 1);
  stubs.ensure(a, ObjectId{1, 1}, 0);
  pacer.note_stub(1, 0);
  pacer.due(stubs, 10, 0);
  stubs.erase(a);
  // Empty set inside the lease: sent (it changed) but the contact stays, so
  // a pending scion the empty set could not yet delete is re-listed later.
  EXPECT_EQ(owners(pacer.due(stubs, 20, 0)), std::vector<ProcessId>{1});
  EXPECT_TRUE(pacer.is_contact(1));
  EXPECT_TRUE(pacer.due(stubs, 30, 0).empty());
  // The lease re-sends the empty set, now past newest stub + lease: retired.
  EXPECT_EQ(owners(pacer.due(stubs, 20 + kLease, 0)), std::vector<ProcessId>{1});
  EXPECT_FALSE(pacer.is_contact(1));
  EXPECT_TRUE(pacer.due(stubs, 20 + 10 * kLease, 0).empty());
  // A new stub readmits the owner and continues the export sequence.
  stubs.ensure(make_ref_id(0, 2), ObjectId{1, 2}, 50'000);
  pacer.note_stub(1, 50'000);
  const auto again = pacer.due(stubs, 50'010, 0);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].second.export_seq, 4u);
}

TEST(NssPacer, SolicitedListingNeverAdmitsAContact) {
  StubTable stubs;
  NssPacer pacer(kLease, kYoung);
  const NewSetStubsMsg msg = pacer.listing_for(stubs, 2, 10, 0);
  EXPECT_TRUE(msg.live.empty());
  EXPECT_EQ(msg.export_seq, 1u);
  EXPECT_FALSE(pacer.is_contact(2));
}

TEST(ScionTable, RefsFromHolder) {
  ScionTable scions;
  scions.ensure(make_ref_id(1, 1), 1, 10, 0);
  scions.ensure(make_ref_id(1, 2), 1, 11, 0);
  scions.ensure(make_ref_id(2, 1), 2, 12, 0);
  EXPECT_EQ(scions.refs_from_holder(1).size(), 2u);
  EXPECT_EQ(scions.refs_from_holder(2).size(), 1u);
  EXPECT_TRUE(scions.refs_from_holder(9).empty());
}

TEST(StubTable, LiveRefsByOwnerGroups) {
  StubTable stubs;
  stubs.ensure(make_ref_id(0, 1), ObjectId{1, 1}, 0);
  stubs.ensure(make_ref_id(0, 2), ObjectId{1, 2}, 0);
  stubs.ensure(make_ref_id(0, 3), ObjectId{2, 1}, 0);
  const auto groups = stubs.live_refs_by_owner();
  EXPECT_EQ(groups.at(1).size(), 2u);
  EXPECT_EQ(groups.at(2).size(), 1u);
}

TEST(StubTable, EnsureIsIdempotent) {
  StubTable stubs;
  auto& a = stubs.ensure(make_ref_id(0, 1), ObjectId{1, 1}, 5);
  a.ic = 42;
  auto& b = stubs.ensure(make_ref_id(0, 1), ObjectId{1, 1}, 9);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.ic, 42u);
  EXPECT_EQ(b.created_at, 5u);
}

}  // namespace
}  // namespace adgc
