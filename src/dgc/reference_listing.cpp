#include "src/dgc/reference_listing.h"

#include <algorithm>
#include <unordered_set>

namespace adgc {

NewSetStubsMsg build_new_set_stubs(const StubTable& stubs, ProcessId owner,
                                   std::uint64_t export_seq) {
  NewSetStubsMsg msg;
  msg.export_seq = export_seq;
  for (const auto& [ref, stub] : stubs) {
    if (stub.target.owner == owner) msg.live.push_back(ref);
  }
  return msg;
}

void NssPacer::note_stub(ProcessId owner, SimTime now) {
  Contact& c = contacts_[owner];
  c.newest_stub = std::max(c.newest_stub, now);
}

std::vector<std::pair<ProcessId, NewSetStubsMsg>> NssPacer::due(const StubTable& stubs,
                                                                SimTime now, Incarnation inc) {
  struct Current {
    std::vector<RefId> live;
    bool young = false;
  };
  std::map<ProcessId, Current> cur;
  for (const auto& [owner, c] : contacts_) {
    (void)c;
    cur[owner];  // empty sets are meaningful
  }
  for (const auto& [ref, stub] : stubs) {
    auto it = cur.find(stub.target.owner);
    if (it == cur.end()) continue;
    it->second.live.push_back(ref);
    if (stub.created_at + young_ > now) it->second.young = true;
  }
  std::vector<std::pair<ProcessId, NewSetStubsMsg>> out;
  for (auto& [owner, now_listed] : cur) {
    const Contact& c = contacts_.at(owner);
    const bool changed = !c.ever_sent || now_listed.live != c.sent;
    const bool lease_due = now >= c.sent_at + lease_;
    if (!changed && !now_listed.young && !lease_due) continue;
    NewSetStubsMsg msg;
    msg.live = std::move(now_listed.live);
    record_send(owner, msg, now, inc);
    out.emplace_back(owner, std::move(msg));
  }
  return out;
}

NewSetStubsMsg NssPacer::listing_for(const StubTable& stubs, ProcessId owner, SimTime now,
                                     Incarnation inc) {
  NewSetStubsMsg msg = build_new_set_stubs(stubs, owner, 0);
  record_send(owner, msg, now, inc);
  return msg;
}

void NssPacer::record_send(ProcessId owner, NewSetStubsMsg& msg, SimTime now, Incarnation inc) {
  msg.export_seq = incarnation_epoch(inc, ++seq_[owner]);
  auto it = contacts_.find(owner);
  if (it == contacts_.end()) return;
  if (msg.live.empty() && now >= it->second.newest_stub + lease_) {
    contacts_.erase(it);
    return;
  }
  it->second.sent = msg.live;
  it->second.sent_at = now;
  it->second.ever_sent = true;
}

void NssPacer::forget(ProcessId owner) {
  contacts_.erase(owner);
  seq_.erase(owner);
}

ApplyNssResult apply_new_set_stubs(ScionTable& scions, ProcessId holder,
                                   const NewSetStubsMsg& msg, SimTime now,
                                   SimTime pending_grace) {
  ApplyNssResult res;
  if (!scions.accept_export_seq(holder, msg.export_seq, now)) {
    res.stale = true;
    return res;
  }
  const std::unordered_set<RefId> live(msg.live.begin(), msg.live.end());
  std::vector<RefId> doomed;
  for (auto& [ref, scion] : scions) {
    if (scion.holder != holder) continue;
    if (live.contains(ref)) {
      if (!scion.confirmed) ++res.confirmed;
      scion.confirmed = true;
      scion.listed = true;
      continue;
    }
    if (scion.listed) {
      // An accepted listing named the ref, and this newer one does not:
      // the holder dropped the stub in between. Authoritative.
      doomed.push_back(ref);
    } else if (now >= scion.created_at + pending_grace) {
      // Never listed and the in-flight window has long closed: the
      // exported reference was lost, dropped before arrival, or dropped
      // after an invocation confirmed it. (Within the window an unlisted
      // scion survives even if an invocation confirmed it: this message may
      // have been built before the holder installed the stub.)
      doomed.push_back(ref);
    }
  }
  for (RefId ref : doomed) scions.erase(ref);
  res.deleted = doomed.size();
  return res;
}

}  // namespace adgc
