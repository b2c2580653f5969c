#include "dep/region_analyzer.hpp"

#include <algorithm>

#include "dep/renaming.hpp"

namespace smpss {

void RegionAnalyzer::add_edge(TaskNode* pred, TaskNode* succ, EdgeKind kind) {
  if (pred->finished_hint()) return;  // finished: can't take successors
  if (!pred->add_successor(succ)) return;
  switch (kind) {
    case EdgeKind::True:
      counters_.raw_edges.fetch_add(1, std::memory_order_relaxed);
      break;
    case EdgeKind::Anti:
      counters_.war_edges.fetch_add(1, std::memory_order_relaxed);
      break;
    case EdgeKind::Output:
      counters_.waw_edges.fetch_add(1, std::memory_order_relaxed);
      break;
    case EdgeKind::Member: break;  // never emitted by the region analyzer
  }
  if (recorder_) recorder_->record_edge(pred->seq, succ->seq, kind);
  // Per-stream accounting mirrors the address-mode analyzer: the edge is
  // charged to the submission that discovered it.
  if (succ->account)
    succ->account->edges.fetch_add(1, std::memory_order_relaxed);
}

void* RegionAnalyzer::process(TaskNode* task, const AccessDesc& access) {
  SMPSS_ASSERT(access.has_region);
  // Belt-and-braces: Runtime::route_access diagnoses this with a proper
  // message before dispatching here; commuting modes never reach regions.
  SMPSS_CHECK(!is_commuting(access.dir),
              "commutative/concurrent access modes are address-mode only");
  counters_.region_accesses.fetch_add(1, std::memory_order_relaxed);
  if (task->account)
    task->account->accesses.fetch_add(1, std::memory_order_relaxed);

  auto [it, inserted] = arrays_.try_emplace(access.addr);
  ArrayEntry& e = it->second;
  if (inserted) {
    e.elem_bytes = access.region.elem_bytes();
    tracked_live_.fetch_add(1, std::memory_order_release);
  } else {
    SMPSS_CHECK(e.elem_bytes == access.region.elem_bytes(),
                "one array accessed with two different element sizes");
  }

  // Lazily prune records whose task already finished; their effects are in
  // memory, so they can no longer be the source of a dependency.
  auto dead = std::remove_if(e.live.begin(), e.live.end(), [&](AccessRec& r) {
    if (!r.task->finished_hint()) return false;
    r.task->release();
    return true;
  });
  e.live.erase(dead, e.live.end());

  const bool writes = access.dir != Dir::In;
  for (const AccessRec& r : e.live) {
    if (r.task == task) continue;            // duplicate params on one task
    if (!r.writes && !writes) continue;      // read-after-read: no hazard
    if (!r.region.overlaps(access.region)) continue;
    // A child operates inside its ancestor's region access; an edge from
    // the (still-running) ancestor would deadlock against taskwait().
    if (task->has_ancestor(r.task)) continue;
    EdgeKind kind = r.writes ? (writes ? EdgeKind::Output : EdgeKind::True)
                             : EdgeKind::Anti;
    add_edge(r.task, task, kind);
  }

  task->add_ref();
  e.live.push_back(AccessRec{access.region, task, writes});

  return access.addr;  // regions never relocate data
}

void RegionAnalyzer::flush_all() {
  for (auto& [addr, e] : arrays_) {
    for (AccessRec& r : e.live) r.task->release();
    e.live.clear();
  }
  arrays_.clear();
  tracked_live_.store(0, std::memory_order_release);
}

}  // namespace smpss
