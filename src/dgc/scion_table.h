// Scion table: incoming remote references protecting local objects.
//
// A scion pins its target object against the local GC. Scions are created by
// the scion-first handshake (AddScion) or locally when this process exports
// one of its own objects, and die either through the acyclic reference-
// listing protocol (NewSetStubs) or through a DCDA cycle-found verdict.
//
// Confirmation state machine (loss/reorder safety of NewSetStubs):
//   pending   — created, the holder process has never mentioned the ref yet.
//               Deletable by NewSetStubs only after a grace period (covers
//               the window where the reference is still in flight), and
//               expired by the owner after grace × expiry factor.
//   confirmed — the holder invoked through the ref: it demonstrably arrived,
//               so the owner-side expiry no longer applies. NewSetStubs
//               absence still deletes it only after the grace period — an
//               invocation says nothing about how old a NewSetStubs is, and
//               one built before the holder installed the stub may arrive
//               after the invocation with a fresh export_seq.
//   listed    — some accepted NewSetStubs named the ref (implies confirmed);
//               from then on NewSetStubs from the holder is authoritative
//               (the holder had the stub when it built the listing message,
//               and stale messages are rejected by export_seq).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"

namespace adgc {

struct ScionEntry {
  RefId ref = kNoRef;
  /// Process holding (or about to hold) the matching stub.
  ProcessId holder = kNoProcess;
  /// The local object this scion protects.
  ObjectSeq target = kNoObject;
  /// Invocation counter mirror of the stub's.
  std::uint64_t ic = 0;
  bool confirmed = false;
  bool listed = false;
  SimTime created_at = 0;
  /// Last time `ic` changed; drives the DCDA candidate quarantine.
  SimTime last_ic_change = 0;
  /// Whether the target was reachable from local roots at the last LGC.
  bool target_root_reachable = true;
};

class ScionTable {
 public:
  /// Inserts (idempotently) a scion. Returns the entry.
  ScionEntry& ensure(RefId ref, ProcessId holder, ObjectSeq target, SimTime now);

  ScionEntry* find(RefId ref);
  const ScionEntry* find(RefId ref) const;
  bool contains(RefId ref) const { return entries_.contains(ref); }
  void erase(RefId ref) { entries_.erase(ref); }

  std::size_t size() const { return entries_.size(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  /// Scions held by `holder` (the subject of one NewSetStubs message).
  std::vector<RefId> refs_from_holder(ProcessId holder) const;

  /// Highest NewSetStubs export_seq accepted from `holder` so far.
  std::uint64_t last_export_seq(ProcessId holder) const;
  /// Records an accepted export_seq; returns false if `seq` is stale
  /// (≤ the recorded one), in which case the message must be ignored.
  /// `now` stamps the holder's last accepted NewSetStubs.
  bool accept_export_seq(ProcessId holder, std::uint64_t seq, SimTime now);

  /// Holders of confirmed scions that have had no NewSetStubs accepted for
  /// `silence` (measured from the later of that message and the oldest such
  /// scion's creation). A live holder leases its listing at least every
  /// grace period, so these are the ones whose last message — typically the
  /// empty set that retired us as a contact — may have been lost.
  std::vector<ProcessId> quiet_holders(SimTime now, SimTime silence) const;

  /// Drops all per-holder bookkeeping (the export_seq watermark) for an
  /// evicted peer. Its fresh incarnation restarts the series from an
  /// incarnation-epoched value that sorts above everything anyway; keeping
  /// the entry would only leak a map slot per evicted peer.
  void forget_holder(ProcessId holder) { holders_.erase(holder); }

 private:
  struct HolderState {
    std::uint64_t export_seq = 0;
    SimTime last_nss = 0;  // when the newest accepted NewSetStubs arrived
  };

  std::map<RefId, ScionEntry> entries_;  // ordered: deterministic iteration
  std::map<ProcessId, HolderState> holders_;
};

}  // namespace adgc
