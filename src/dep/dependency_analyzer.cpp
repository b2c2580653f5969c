#include "dep/dependency_analyzer.hpp"

#include <algorithm>
#include <cstring>

#include "dep/access_group.hpp"

namespace smpss {

namespace {
/// Nested-task scoping rule: a version counts as available to `task` when it
/// is produced, has no producer (initial data), or its producer is `task`
/// itself or one of `task`'s ancestors. An ancestor is mid-execution — its
/// working copy holds exactly the value the child is meant to operate on —
/// and an ancestor→descendant edge would deadlock against taskwait(). The
/// contract this implies: data a child task touches must be covered by an
/// ancestor's footprint (or be subtree-private), and no outside task may be
/// submitted against it while the subtree is active.
bool available_to(const TaskNode* task, const Version* v) {
  const TaskNode* prod = v->producer();
  return prod == nullptr || v->is_produced() || prod == task ||
         task->has_ancestor(prod);
}
}  // namespace

DependencyAnalyzer::DependencyAnalyzer(RenamePool& pool, bool renaming_enabled,
                                       GraphRecorder* recorder,
                                       unsigned owner_slots,
                                       unsigned cache_blocks)
    : pool_(pool),
      renaming_(renaming_enabled),
      recorder_(recorder),
      workers_(owner_slots < 1 ? 1 : owner_slots),
      buckets_(std::make_unique<std::atomic<DataEntry*>[]>(kBuckets)),
      stripes_(std::make_unique<CounterStripe[]>(kStripes)),
      vpool_(Version::block_bytes(), alignof(std::max_align_t),
             owner_slots < 1 ? 1 : owner_slots,
             cache_blocks < 1 ? 1 : cache_blocks) {}

DependencyAnalyzer::~DependencyAnalyzer() {
  // Normal shutdown goes through flush_all() after a barrier; this handles
  // abandoned runtimes without leaking versions or entries.
  for (AccessGroup* g : open_groups_) g->release();
  for (unsigned b = 0; b < kBuckets; ++b) {
    DataEntry* p = buckets_[b].load(std::memory_order_acquire);
    while (p != nullptr) {
      DataEntry* next = p->next.load(std::memory_order_relaxed);
      if (Version* v = p->latest.load(std::memory_order_acquire))
        v->release(pool_);
      if (Version* u = p->user_tail.load(std::memory_order_acquire))
        u->release(pool_);
      delete p;
      p = next;
    }
  }
}

DataEntry& DependencyAnalyzer::entry_for(CounterStripe& st, unsigned slot,
                                         void* addr, std::size_t bytes) {
  std::atomic<DataEntry*>& bucket = bucket_for(addr);
  DataEntry* head = bucket.load(std::memory_order_acquire);
  for (DataEntry* p = head; p != nullptr;
       p = p->next.load(std::memory_order_acquire)) {
    if (p->user_ptr == addr) return *p;
  }
  // Miss: build the entry with its initial version — the program's own
  // storage, already "produced" — and CAS-prepend it. Chains are
  // prepend-only until flush (which requires quiescence), so the walks above
  // and below never race with reclamation.
  auto* e = new DataEntry;
  e->user_ptr = addr;
  e->bytes.store(bytes, std::memory_order_relaxed);
  Version* v0 = Version::create(vpool_, slot, e, addr, bytes,
                                /*renamed=*/false, /*producer=*/nullptr);
  e->latest.store(v0, std::memory_order_release);
  DataEntry* checked = head;  // everything from here down is already scanned
  while (true) {
    e->next.store(head, std::memory_order_relaxed);
    if (bucket.compare_exchange_weak(head, e, std::memory_order_release,
                                     std::memory_order_acquire)) {
      st.tracked_objects.fetch_add(1, std::memory_order_relaxed);
      return *e;
    }
    // Lost the insert race: scan only the newly prepended prefix for a
    // duplicate of our address; the loser destroys its speculative entry.
    for (DataEntry* p = head; p != checked;
         p = p->next.load(std::memory_order_acquire)) {
      if (p->user_ptr == addr) {
        v0->release(pool_);
        delete e;
        return *p;
      }
    }
    checked = head;
  }
}

void DependencyAnalyzer::prefetch_head(const void* addr) noexcept {
  DataEntry* e = find(addr);
  if (e == nullptr) return;
  // The head may be superseded, or its block recycled, by the time the
  // analysis reaches it: that costs one wasted prefetch (see
  // Version::prefetch_hot_line).
  if (const Version* v = e->latest.load(std::memory_order_relaxed))
    v->prefetch_hot_line();
}

Version* DependencyAnalyzer::pin_latest(CounterStripe& st, DataEntry& e) {
  while (true) {
    Version* v = e.latest.load(std::memory_order_acquire);
    // Register first (count + ref), then validate the head is unchanged.
    // The seq_cst RMW inside register_reader pairs with the writer's
    // seq_cst publication CAS and readers_pending probe (Dekker): either our
    // validation sees the writer's new head and we retry, or the writer's
    // probe sees our pending count. If the version died and the block was
    // recycled in between, the abort makes the excursion net-zero (see
    // dep/version.hpp).
    v->register_reader();
    if (e.latest.load(std::memory_order_seq_cst) == v) return v;
    v->abort_reader_registration(pool_);
    st.lockfree_cas_retries.fetch_add(1, std::memory_order_relaxed);
  }
}

void* DependencyAnalyzer::process(TaskNode* task, const AccessDesc& access) {
  SMPSS_ASSERT(!access.has_region);  // region accesses go to RegionAnalyzer
  const unsigned slot = task->submit_slot;
  CounterStripe& st = stripe_for(slot);
  DataEntry& e = entry_for(st, slot, access.addr, access.bytes);
  switch (access.dir) {
    case Dir::In:
      return process_read(st, task, e, access.bytes);
    case Dir::Out:
      return process_write(st, slot, task, e, access.bytes,
                           /*also_reads=*/false);
    case Dir::InOut:
      return process_write(st, slot, task, e, access.bytes,
                           /*also_reads=*/true);
    case Dir::Commutative:
    case Dir::Concurrent:
      return process_commuting(st, slot, task, e, access);
  }
  return nullptr;  // unreachable
}

void* DependencyAnalyzer::process_read(CounterStripe& st, TaskNode* task,
                                       DataEntry& e, std::size_t bytes) {
  // The speculative pin IS the reader registration once validated.
  Version* v = pin_latest(st, e);
  // Reader task recording feeds WAR edges, which only the no-renaming
  // ablation emits (its submissions are serialized, so the plain vector
  // push is safe); renaming absorbs those hazards.
  if (!renaming_) v->record_reader(task);
  // A read is a non-matching access for any open commuting group at the
  // head: seal it, so no later member can slip in behind this reader. The
  // ordering itself needs nothing special — the group version's producer is
  // its close node, so the ordinary RAW edge below orders this reader after
  // the entire group. (Safe to inspect: the pin/registration above keeps v
  // alive, and sealing races are idempotent.)
  if (AccessGroup* g = v->group()) seal_group(st, g);
  // A freshly CAS-published version may still be storage-unresolved while
  // its writer decides between reuse and rename; bytes()/renamed() are only
  // stable after the wait.
  void* s = v->storage_wait();
  SMPSS_CHECK(!v->renamed() || bytes <= v->bytes(),
              "task declares a larger input size than the renamed version "
              "holds — inconsistent parameter sizes on one datum");
  if (!available_to(task, v)) {
    wire_edge(st, recorder_, v->producer(), task, EdgeKind::True);
  }
  task->reads.push_back(v);
  return s;
}

void* DependencyAnalyzer::process_write(CounterStripe& st, unsigned slot,
                                        TaskNode* task, DataEntry& e,
                                        std::size_t bytes, bool also_reads,
                                        AccessGroup* group) {
  // Publish first, decide later: the new version is CAS-swung onto the chain
  // head with its storage still unresolved. Success transfers the superseded
  // version's latest-token to us — from that point v cannot die under us and
  // no later writer can touch it (writers of one datum serialize on this
  // CAS). Crucially, v is NOT read at all before the CAS: a lost race means
  // the pointer may refer to a recycled block, and only the transferred
  // token makes its fields trustworthy. The task keeps the token until it
  // retires (TaskNode::superseded).
  Version* v2 = Version::create(vpool_, slot, &e, Version::unresolved_storage(),
                                /*bytes=*/0, /*renamed=*/false, task);
  if (group) {
    // Opening a commuting group: attach it before publication so any access
    // that observes the new head already sees the group pointer (joiners
    // then spin on group->ready for the wiring below to finish).
    group->add_ref();
    v2->set_group(group);
  }
  // Strong CAS: a retry is always a lost race, so a single submitter's
  // count stays exactly zero even where a weak CAS can fail spuriously.
  Version* v = e.latest.load(std::memory_order_acquire);
  while (!e.latest.compare_exchange_strong(v, v2, std::memory_order_seq_cst,
                                           std::memory_order_acquire)) {
    st.lockfree_cas_retries.fetch_add(1, std::memory_order_relaxed);
  }
  // RAW on the old value, wired straight after the CAS: v's producer was
  // set before v was published, so it needs no storage_wait. The earlier
  // the edge, the likelier a producer still running catches this task as
  // its successor (immediate chaining) instead of retiring first and
  // leaving it ready at creation, a ready-list round trip per task.
  if (also_reads && !available_to(task, v)) {
    wire_edge(st, recorder_, v->producer(), task, EdgeKind::True);
  }
  // Our predecessor may itself still be storage-unresolved (its writer is
  // mid-decision); every field read below needs it finalized.
  v->storage_wait();

  // A plain write never commutes with an open group at the superseded head:
  // seal it — including when we are ourselves opening a new group on top (a
  // lost publication race between two matching accesses stacks two groups;
  // the close-node edges below still order them correctly). The hazard
  // probe below sees the group version unproduced (its close node retires
  // only after every member), which forces the rename/edge that orders this
  // writer after the whole group.
  if (AccessGroup* pg = v->group()) seal_group(st, pg);

  // Merged-extent invariant: e.bytes is the largest extent ever written and
  // every version covers all of it, so copy-back of `latest` alone restores
  // the full datum. A write smaller than the current extent therefore
  // *inherits* the predecessor's tail bytes instead of truncating them; a
  // write larger than it grows the extent.
  const std::size_t old_ext = v->bytes();
  fetch_max(e.bytes, bytes);
  const std::size_t ext = e.bytes.load(std::memory_order_relaxed);

  void* storage = nullptr;
  bool renamed = false;

  if (renaming_) {
    // Renaming configuration: never block on WAR/WAW — either reuse the old
    // version's bytes in place when nothing else will touch them, or move
    // the new version to fresh aligned storage. An old version produced by
    // an ancestor counts as produced (see available_to): the child writes
    // inside the ancestor's access, so reusing its bytes is the coherent
    // choice, not a hazard.
    //
    // Hazard probe: the seq_cst readers_pending read after our seq_cst CAS
    // pairs with the reader pin protocol (register seq_cst, then validate) —
    // a reader that validated against v is visible here, and a reader we do
    // not see will fail validation and retry against v2. Phantom counts from
    // recycled-block excursions can only inflate the probe (spurious rename,
    // never a missed hazard).
    const bool others_reading = v->readers_pending() > 0;
    const bool old_unproduced = !available_to(task, v);
    // A renamed buffer's capacity is the extent it was allocated with; a
    // growing write cannot reuse it in place (user storage can always grow —
    // the program owns at least the declared bytes at that address).
    const bool too_small = v->renamed() && ext > old_ext;
    const bool hazard = (also_reads ? others_reading
                                    : (others_reading || old_unproduced)) ||
                        too_small;
    if (!hazard) {
      // The RAW on the reused value is ordered by the pending-count edge
      // alone.
      storage = v->storage();
      renamed = v->renamed();
      v->disown_storage();  // ownership moves to the new version
      st.in_place_reuses.fetch_add(1, std::memory_order_relaxed);
      // In-place merge is free: tail bytes beyond `bytes` (if any) are
      // already sitting in this storage.
    } else {
      if (v->storage() == e.user_ptr) {
        // The first write of the phase to leave the user buffer: v is the
        // last version there. Published before finalize_storage below, so a
        // wait_on that sees this version's storage also sees the tail.
        SMPSS_ASSERT(e.user_tail.load(std::memory_order_relaxed) == nullptr);
        v->add_ref();
        e.user_tail.store(v, std::memory_order_release);
      }
      storage = pool_.allocate(ext);
      renamed = true;
      // Bytes the new version must inherit from the predecessor: everything
      // for an inout (the body starts from the old value), the tail beyond
      // the declared write for a shrinking out.
      const std::size_t keep_lo = also_reads ? 0 : bytes;
      if (keep_lo < old_ext) {
        if (!also_reads && !available_to(task, v)) {
          // The inherited tail is a true dependence on the old producer even
          // though the body itself never reads it.
          wire_edge(st, recorder_, v->producer(), task, EdgeKind::True);
        }
        // Register as reader (keeps the old version's storage alive until
        // this task completes) and schedule the byte copy. v is stable (we
        // hold its former latest-token), so this needs no speculative pin.
        v->register_reader();
        task->reads.push_back(v);
        task->copy_ins.push_back(
            CopyIn{static_cast<const char*>(v->storage()) + keep_lo,
                   static_cast<char*>(storage) + keep_lo, old_ext - keep_lo});
        st.copy_ins.fetch_add(1, std::memory_order_relaxed);
        st.copy_in_bytes.fetch_add(old_ext - keep_lo,
                                   std::memory_order_relaxed);
      }
      if (also_reads && ext > old_ext) {
        // Growing inout: bytes [old_ext, ext) were never written by any
        // task, so the body's initial value for them is the program's own
        // storage. Reading it at task start is a user-buffer access: pin the
        // user tail as a reader, so wait_on() cannot copy into the buffer
        // before this copy ran (this branch renamed, so the tail is set).
        Version* tail = e.user_tail.load(std::memory_order_relaxed);
        tail->register_reader();
        task->reads.push_back(tail);
        task->copy_ins.push_back(
            CopyIn{static_cast<const char*>(e.user_ptr) + old_ext,
                   static_cast<char*>(storage) + old_ext, ext - old_ext});
        st.copy_ins.fetch_add(1, std::memory_order_relaxed);
        st.copy_in_bytes.fetch_add(ext - old_ext, std::memory_order_relaxed);
      }
    }
  } else {
    // No-renaming ablation: everything stays in the user's storage and the
    // hazards the paper eliminates become explicit graph edges. Ancestor
    // accesses are exempt for the same scoping reason as above. The merge
    // invariant is trivial here — all writes land in user storage. The
    // reader-task list is stable: submissions are serialized in this
    // configuration.
    if (!available_to(task, v)) {
      wire_edge(st, recorder_, v->producer(), task, EdgeKind::Output);
    }
    for (TaskNode* r : v->reader_tasks()) {
      if (r != task && !r->finished_hint() && !task->has_ancestor(r)) {
        wire_edge(st, recorder_, r, task, EdgeKind::Anti);
      }
    }
    storage = v->storage();
  }

  if (group) {
    // The group pins the superseded version so member wiring can keep
    // taking edges from its producer/readers. v is stable here (we hold its
    // former latest-token) and group->ready is still unset, so no joiner
    // reads these fields yet.
    group->bytes = ext;
    v->add_ref();
    group->prev = v;
  }

  // Resolve v2: readers pinned on it are spinning in storage_wait() for
  // exactly this release.
  v2->finalize_storage(storage, ext, renamed);

  task->produces.push_back(v2);
  // The latest-token the CAS transferred to us is dropped at this task's
  // retire: v and its producer's node then die on a worker, and the
  // submitter never touches the lines their retires wrote.
  task->superseded.push_back(v);
  return storage;
}

void* DependencyAnalyzer::process_commuting(CounterStripe& st, unsigned slot,
                                            TaskNode* task, DataEntry& e,
                                            const AccessDesc& access) {
  SMPSS_CHECK(close_factory_,
              "commutative/concurrent access before the runtime installed "
              "its group-close factory");
  SMPSS_ASSERT(access.dir != Dir::Concurrent || access.op.valid());

  // Try to join an open matching group at the chain head.
  while (true) {
    // Pin before inspecting: only a validated pin makes v's fields (group
    // pointer included) trustworthy against block recycling.
    Version* v = pin_latest(st, e);
    AccessGroup* g = v->group();
    bool joined = false;
    if (g != nullptr) {
      while (!g->ready.load(std::memory_order_acquire)) cpu_relax();
      const bool match =
          g->mode == access.dir &&
          (access.dir != Dir::Concurrent || g->op == access.op) &&
          access.bytes <= g->bytes;
      if (match) {
        bool still_open;
        g->mu.lock();
        // Head revalidation closes the race where the group was superseded
        // (and sealed) between our pin and the lock.
        if (g->open.load(std::memory_order_relaxed) &&
            e.latest.load(std::memory_order_acquire) == v) {
          join_member(st, task, g);
          joined = true;
        }
        still_open = g->open.load(std::memory_order_relaxed);
        g->mu.unlock();
        if (!joined && still_open) {
          // Open but no longer at the head: retry against the new head.
          v->reader_finished(pool_);
          st.lockfree_cas_retries.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Sealed group: fall through and open a fresh one on the head.
      } else {
        // A non-matching commuting access seals the group, exactly like a
        // plain read/write would.
        seal_group(st, g);
      }
    }
    if (joined) {
      void* s = v->storage_wait();
      v->reader_finished(pool_);
      return s;
    }
    v->reader_finished(pool_);
    break;
  }

  // Open a new group. The ordinary inout process_write runs with the close
  // node as the writing task; it seals whatever group the superseded head
  // still carried, wires the close node's RAW edge, and hangs the group off
  // the new version (see file comment in dep/access_group.hpp).
  st.groups_opened.fetch_add(1, std::memory_order_relaxed);
  auto* g = new AccessGroup(access.dir, access.op, access.bytes, workers_,
                            pool_);
  TaskNode* close = close_factory_(slot);
  g->close = close;
  void* storage = process_write(st, slot, close, e, access.bytes,
                                /*also_reads=*/true, g);
  if (access.dir == Dir::Commutative && !close->copy_ins.empty()) {
    // Renamed commutative storage: the inherit copies must land before the
    // first member's writes, not at close retire — move them onto the group,
    // where the first member to execute claims them under the token.
    SMPSS_ASSERT(close->copy_ins.size() <= 2);
    g->init_count = 0;
    for (const CopyIn& c : close->copy_ins) g->init_copies[g->init_count++] = c;
    close->copy_ins.clear();
    g->init_pending.store(true, std::memory_order_relaxed);
  }
  register_open_group(g);
  // The opener is the group's first member. It joins before the group is
  // marked ready, so no seal can close the group ahead of it.
  g->mu.lock();
  join_member(st, task, g);
  g->mu.unlock();
  g->ready.store(true, std::memory_order_release);
  g->release();  // the creator's reference; members and the version hold it
  return storage;
}

void DependencyAnalyzer::join_member(CounterStripe& st, TaskNode* task,
                                     AccessGroup* g) {
  Version* prev = g->prev;
  if (g->mode == Dir::Commutative) {
    // Members read-modify-write the group storage directly: each orders
    // after the superseded version's producer (RAW on the inherited value —
    // also covers in-place reuse of unproduced storage) …
    if (prev != nullptr && !available_to(task, prev)) {
      wire_edge(st, recorder_, prev->producer(), task, EdgeKind::True);
    }
    // … and, with renaming off (in-place in user storage), after its still-
    // pending readers. Mutual exclusion among members is not an edge at all:
    // the scheduler arbitrates the shared token at acquire time.
    if (!renaming_ && prev != nullptr) {
      for (TaskNode* r : prev->reader_tasks()) {
        if (r != task && !r->finished_hint() && !task->has_ancestor(r)) {
          wire_edge(st, recorder_, r, task, EdgeKind::Anti);
        }
      }
    }
    // A task naming the same commutative datum twice must not carry the
    // token twice — the all-or-nothing acquire would deadlock against its
    // own first copy.
    bool have_token = false;
    for (std::size_t i = 0; i < task->conflicts.size(); ++i)
      have_token |= task->conflicts[i] == &g->token;
    if (!have_token) {
      g->add_ref();
      task->conflicts.push_back(&g->token);
    }
  } else {
    // Concurrent members touch only their worker-private buffer, so they
    // need no ordering whatsoever — the close node (which owns the inherit
    // copy and the combine) carries the group's data dependences.
    g->add_ref();
    task->reduce_fixups.push_back(TaskNode::ReduceFixup{
        static_cast<std::uint32_t>(task->resolved.size()), g});
  }
  st.group_joins.fetch_add(1, std::memory_order_relaxed);
  // The Member edge is the close node's completion count — not an ordering
  // constraint on the member.
  wire_edge(st, recorder_, task, g->close, EdgeKind::Member);
}

void DependencyAnalyzer::seal_group(CounterStripe& st, AccessGroup* g) {
  // The group may be published but not yet initialized (its opener is
  // still between the publication CAS and the ready store).
  while (!g->ready.load(std::memory_order_acquire)) cpu_relax();
  bool winner = false;
  g->mu.lock();
  if (g->open.load(std::memory_order_relaxed)) {
    g->open.store(false, std::memory_order_relaxed);
    winner = true;
  }
  g->mu.unlock();
  if (!winner) return;
  st.groups_closed.fetch_add(1, std::memory_order_relaxed);
  // Drop the close node's open-guard; if every member already finished, the
  // node is ready for Runtime::retire_close now.
  TaskNode* close = g->close;
  if (close->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    push_pending_close(close);
  }
}

void DependencyAnalyzer::push_pending_close(TaskNode* close) noexcept {
  TaskNode* head = pending_closes_.load(std::memory_order_relaxed);
  do {
    close->queue_next = head;
  } while (!pending_closes_.compare_exchange_weak(head, close,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed));
}

void DependencyAnalyzer::register_open_group(AccessGroup* g) {
  std::lock_guard<std::mutex> lk(groups_mu_);
  // Lazy prune: sealed groups need no barrier attention.
  auto dead = std::remove_if(open_groups_.begin(), open_groups_.end(),
                             [](AccessGroup* og) {
                               if (og->open.load(std::memory_order_acquire))
                                 return false;
                               og->release();
                               return true;
                             });
  open_groups_.erase(dead, open_groups_.end());
  g->add_ref();
  open_groups_.push_back(g);
}

void DependencyAnalyzer::close_open_groups() {
  std::vector<AccessGroup*> snap;
  {
    std::lock_guard<std::mutex> lk(groups_mu_);
    snap.swap(open_groups_);
  }
  CounterStripe& st = stripes_[0];
  for (AccessGroup* g : snap) {
    seal_group(st, g);
    g->release();
  }
}

void DependencyAnalyzer::flush_all() {
  CounterStripe& st = stripes_[0];
  for (unsigned b = 0; b < kBuckets; ++b) {
    DataEntry* p = buckets_[b].load(std::memory_order_acquire);
    buckets_[b].store(nullptr, std::memory_order_relaxed);
    while (p != nullptr) {
      DataEntry* next = p->next.load(std::memory_order_relaxed);
      Version* v = p->latest.load(std::memory_order_acquire);
      SMPSS_ASSERT(v->is_produced());
      SMPSS_ASSERT(v->readers_pending() == 0);
      // The merged-extent invariant copy-back correctness rests on.
      SMPSS_ASSERT(v->bytes() == p->bytes.load(std::memory_order_relaxed));
      if (v->storage() != p->user_ptr) {
        std::memcpy(p->user_ptr, v->storage(), v->bytes());
        st.copyback_bytes.fetch_add(v->bytes(), std::memory_order_relaxed);
      }
      v->release(pool_);
      if (Version* u = p->user_tail.load(std::memory_order_relaxed)) {
        SMPSS_ASSERT(u->readers_pending() == 0);
        u->release(pool_);
      }
      delete p;
      p = next;
    }
  }
}

DataEntry* DependencyAnalyzer::find(const void* addr) {
  for (DataEntry* p = bucket_for(addr).load(std::memory_order_acquire);
       p != nullptr; p = p->next.load(std::memory_order_acquire)) {
    if (p->user_ptr == addr) return p;
  }
  return nullptr;
}

DependencyAnalyzer::CopyBack DependencyAnalyzer::try_copy_back(
    const void* addr) {
  DataEntry* e = find(addr);
  if (e == nullptr) return CopyBack::kUntracked;
  CounterStripe& st = stripes_[0];
  // Pin the head as a reader: any writer racing in must now see
  // readers_pending > 0 and rename, so the bytes we copy from stay stable
  // for the duration of the pin.
  Version* v = pin_latest(st, *e);
  bool ready = v->is_produced();
  if (ready) {
    // A latest version still in the user buffer needs no copy. A renamed
    // one may be copied in once no task touches the buffer any more: its
    // last version there is produced and has no pending reader (see
    // DataEntry::user_tail). The tail was published before v's storage.
    void* s = v->storage_wait();
    if (s != e->user_ptr) {
      Version* tail = e->user_tail.load(std::memory_order_acquire);
      ready = tail->is_produced() && tail->readers_pending() == 0;
      if (ready) {
        std::memcpy(e->user_ptr, s, v->bytes());
        st.copyback_bytes.fetch_add(v->bytes(), std::memory_order_relaxed);
      }
    }
  }
  v->reader_finished(pool_);
  return ready ? CopyBack::kDone : CopyBack::kNotReady;
}

}  // namespace smpss
