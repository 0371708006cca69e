// Acyclic distributed GC: the reference-listing protocol (Shapiro et al.).
//
// After an LGC run a process sends an owner the complete set of its
// surviving stubs toward that owner (NewSetStubs); the owner deletes scions
// no longer backed by a stub. Messages are cumulative and idempotent; a
// per-holder export sequence rejects stale (reordered) messages, and
// pending scions (reference still in flight toward its future holder) are
// protected by a grace period.
//
// The holder sends change-driven rather than every LGC (NssPacer below):
// an idle cluster then costs one lease refresh per live holder→owner pair
// per grace period instead of one message per contact per LGC.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "src/common/config.h"
#include "src/dgc/scion_table.h"
#include "src/dgc/stub_table.h"
#include "src/net/message.h"

namespace adgc {

/// Builds the NewSetStubs payload for destination `owner`: all live stubs
/// whose target lives at `owner` (pinned in-flight exports included —
/// StubTable deletion already spares them, so they are simply present).
NewSetStubsMsg build_new_set_stubs(const StubTable& stubs, ProcessId owner,
                                   std::uint64_t export_seq);

/// Holder side of reference listing: which owners ("contacts") get a
/// NewSetStubs after an LGC. A contact is sent its listing when
///   * the listing differs from the one last sent to it, or
///   * some current stub toward it is younger than `young` — the owner's
///     pending-scion expiry (grace × expiry factor) may still be waiting
///     for the listing to confirm it, so it keeps the every-LGC cadence, or
///   * `lease` has passed since the last send (covers a lost push).
/// A contact retires once it has been sent an empty listing at least
/// `lease` after its newest stub was created: by then every scion the
/// owner created for it is past the pending grace, so that empty set
/// deletes them all. A stub created later readmits the contact. A lost
/// final message is recovered by the owner's NssSolicit.
class NssPacer {
 public:
  NssPacer(SimTime lease, SimTime young) : lease_(lease), young_(young) {}

  /// A stub toward `owner` was created at `now`: (re)admits the contact.
  void note_stub(ProcessId owner, SimTime now);

  /// The post-LGC fan-out: one pass over the stub table, returning the
  /// listing for every contact that is due, stamped with its export_seq
  /// (epoch-stamped with `inc`, so the first message after a restart still
  /// sorts above everything the lost incarnation sent).
  std::vector<std::pair<ProcessId, NewSetStubsMsg>> due(const StubTable& stubs, SimTime now,
                                                        Incarnation inc);

  /// The listing for `owner` regardless of cadence (the answer to an
  /// NssSolicit; an empty set is as meaningful as a full one). Never admits
  /// a contact.
  NewSetStubsMsg listing_for(const StubTable& stubs, ProcessId owner, SimTime now,
                             Incarnation inc);

  /// Drops the contact and its sequence (the owner was evicted).
  void forget(ProcessId owner);

  bool is_contact(ProcessId owner) const { return contacts_.contains(owner); }

 private:
  struct Contact {
    std::vector<RefId> sent;  // the listing last sent
    SimTime sent_at = 0;
    bool ever_sent = false;
    SimTime newest_stub = 0;  // creation time of the newest stub toward it
  };

  /// Stamps `msg`, records it as sent and retires the contact if due.
  void record_send(ProcessId owner, NewSetStubsMsg& msg, SimTime now, Incarnation inc);

  SimTime lease_;
  SimTime young_;
  std::map<ProcessId, Contact> contacts_;  // ordered: deterministic fan-out
  /// Outlives retirement: a readmitted contact must continue the series the
  /// owner's watermark already saw.
  std::map<ProcessId, std::uint64_t> seq_;
};

struct ApplyNssResult {
  bool stale = false;          // rejected: export_seq not newer than last seen
  std::size_t deleted = 0;     // scions removed
  std::size_t confirmed = 0;   // pending scions confirmed by this message
};

/// Applies a NewSetStubs from `holder` to the local scion table.
ApplyNssResult apply_new_set_stubs(ScionTable& scions, ProcessId holder,
                                   const NewSetStubsMsg& msg, SimTime now,
                                   SimTime pending_grace);

}  // namespace adgc
