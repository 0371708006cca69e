#include "src/dgc/scion_table.h"

#include <algorithm>

namespace adgc {

ScionEntry& ScionTable::ensure(RefId ref, ProcessId holder, ObjectSeq target, SimTime now) {
  auto [it, inserted] = entries_.try_emplace(ref);
  if (inserted) {
    it->second.ref = ref;
    it->second.holder = holder;
    it->second.target = target;
    it->second.created_at = now;
    it->second.last_ic_change = now;
  }
  return it->second;
}

ScionEntry* ScionTable::find(RefId ref) {
  auto it = entries_.find(ref);
  return it == entries_.end() ? nullptr : &it->second;
}

const ScionEntry* ScionTable::find(RefId ref) const {
  auto it = entries_.find(ref);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<RefId> ScionTable::refs_from_holder(ProcessId holder) const {
  std::vector<RefId> out;
  for (const auto& [ref, entry] : entries_) {
    if (entry.holder == holder) out.push_back(ref);
  }
  return out;
}

std::uint64_t ScionTable::last_export_seq(ProcessId holder) const {
  auto it = holders_.find(holder);
  return it == holders_.end() ? 0 : it->second.export_seq;
}

bool ScionTable::accept_export_seq(ProcessId holder, std::uint64_t seq, SimTime now) {
  HolderState& h = holders_[holder];
  if (seq <= h.export_seq) return false;
  h.export_seq = seq;
  h.last_nss = now;
  return true;
}

std::vector<ProcessId> ScionTable::quiet_holders(SimTime now, SimTime silence) const {
  std::map<ProcessId, SimTime> since;  // holder -> oldest confirmed scion
  for (const auto& [ref, e] : entries_) {
    (void)ref;
    if (!e.confirmed || e.holder == kNoProcess) continue;
    auto [it, fresh] = since.try_emplace(e.holder, e.created_at);
    if (!fresh && e.created_at < it->second) it->second = e.created_at;
  }
  std::vector<ProcessId> out;
  for (const auto& [holder, oldest] : since) {
    SimTime baseline = oldest;
    if (auto it = holders_.find(holder); it != holders_.end()) {
      baseline = std::max(baseline, it->second.last_nss);
    }
    if (now >= baseline + silence) out.push_back(holder);
  }
  return out;
}

}  // namespace adgc
