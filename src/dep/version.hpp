// Data versions — the runtime-side analogue of physical registers in a
// superscalar processor (paper Sec. II: "the SMPSs runtime is capable of
// renaming the data, leaving only the true dependencies. This is the same
// technique used by superscalar processors").
//
// Every datum the program passes to tasks is a chain of versions. A version
// records where its bytes live (the user's storage or a runtime-owned
// renamed buffer), which task produces it, and how many readers are still
// pending. Lifetime is reference-counted:
//   +1 "latest" token   — held while the version is the newest of its datum;
//                         the write that supersedes it hands the token to
//                         its task, which drops it at retire (so the version,
//                         and with it its producer's TaskNode, dies on the
//                         retiring worker, not on the submitter)
//   +1 producer token   — held until the producing task completes
//   +1 per reader       — held until each reading task completes
//   +1 user-tail token  — held by DataEntry::user_tail (the last version in
//                         the program's own buffer once a later one was
//                         renamed) until the phase's flush
// When the count drops to zero the version is destroyed and renamed storage
// is returned to the rename pool. This gives the eager reclamation the paper
// relies on to keep renamed-memory bounded.
//
// Lock-free chain support: versions are allocated from
// a type-stable SlabPool and their two synchronization counters (refs,
// pending readers) live in a per-block prefix cell that SURVIVES tenancies —
// the pool recycles the block but never reinitializes the counters. A reader
// pins the chain head speculatively (increment first, then validate that the
// entry's latest pointer is unchanged); if the version died in between, the
// increments landed on recycled type-stable memory and the compensating
// decrements make the excursion net-zero. Two invariants make that safe:
//
//   * dead blocks idle at kDeadBias, live tenancies at >= 1, and the
//     1 -> kDeadBias "last reference" transition is one CAS — the count is
//     never observed at 0, so a phantom decrement can only be the genuine
//     last release of a live tenancy (it frees correctly) and can never
//     double-free a dead block;
//   * the counters are revived with fetch_add (never a store), so phantom
//     increments in flight across a reallocation stay counted.
//
// Pending-reader increments and the retiring writer's pending-reader read
// are seq_cst: paired with the seq_cst CAS that publishes a new latest
// version, this is the Dekker-style guarantee that a writer which swung the
// chain head sees every reader that validated against the old head — a
// just-registered reader can never be missed (a missed one would let the
// writer reuse the storage in place under a live reader).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "common/slab_pool.hpp"
#include "common/small_vector.hpp"
#include "common/spin.hpp"
#include "graph/task.hpp"

namespace smpss {

class RenamePool;
struct DataEntry;
struct AccessGroup;       // dep/access_group.hpp

class Version {
 public:
  /// The per-block persistent counter cell: constructed exactly once, on the
  /// block's first tenancy, and only ever mutated with read-modify-writes
  /// afterwards (see file comment).
  struct RefCell {
    std::atomic<int> refs;
    std::atomic<int> readers_pending;
  };

  /// Block layout: [RefCell prefix][Version body]. The prefix is padded to
  /// keep the body at max_align.
  static constexpr std::size_t kPrefixBytes = alignof(std::max_align_t);
  static_assert(sizeof(RefCell) <= kPrefixBytes);

  /// Resting refcount of a dead block. Any value a live tenancy can reach
  /// (real tokens + transient speculative pins) stays far below it.
  static constexpr int kDeadBias = 1 << 29;

  /// Storage sentinel of a version published by CAS before its renaming
  /// decision was made; readers spin in storage_wait() until the winning
  /// writer calls finalize_storage().
  static void* unresolved_storage() noexcept {
    return reinterpret_cast<void*>(std::uintptr_t{1});
  }

  /// Pool block size for a Version (prefix + body).
  static constexpr std::size_t block_bytes() noexcept;

  /// Allocate + construct a version on `vpool` with the latest-token
  /// (refs=1) plus a producer token if `producer` is non-null (refs=2);
  /// takes a strong ref on the producer task. `slot` is the submitting
  /// thread's pool slot.
  static Version* create(SlabPool& vpool, unsigned slot, DataEntry* entry,
                         void* storage, std::size_t bytes, bool renamed,
                         TaskNode* producer);

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  /// Current storage pointer; unresolved_storage() while a concurrent writer
  /// is still deciding between in-place reuse and renaming.
  void* storage() const noexcept {
    return storage_.load(std::memory_order_acquire);
  }

  /// Storage pointer, spinning past the unresolved window. Must be called
  /// before reading bytes()/renamed() of a version another thread
  /// may have published: finalize_storage() is the release that makes those
  /// fields stable.
  void* storage_wait() const noexcept {
    void* s = storage_.load(std::memory_order_acquire);
    while (s == unresolved_storage()) {
      cpu_relax();
      s = storage_.load(std::memory_order_acquire);
    }
    return s;
  }

  /// The winning writer's publication of the renaming decision: storage,
  /// final extent and ownership. Release-paired with storage_wait().
  void finalize_storage(void* s, std::size_t bytes, bool renamed) noexcept {
    bytes_ = bytes;
    renamed_ = renamed;
    storage_.store(s, std::memory_order_release);
  }

  std::size_t bytes() const noexcept { return bytes_; }
  bool renamed() const noexcept { return renamed_; }
  DataEntry* entry() const noexcept { return entry_; }
  TaskNode* producer() const noexcept { return producer_; }

  /// Commuting access group this version is the target of (null for normal
  /// versions). Takes over one group ref; set before publication, cleared
  /// (with the ref released) only by the destructor. Joiners key off it to
  /// recognize an open group at the chain head.
  void set_group(AccessGroup* g) noexcept { group_ = g; }
  AccessGroup* group() const noexcept { return group_; }

  bool is_produced() const noexcept {
    return produced_.load(std::memory_order_acquire);
  }
  void mark_produced() noexcept {
    produced_.store(true, std::memory_order_release);
  }

  // --- reader registration --------------------------------------------------

  /// Register a pending reader: bumps the pending count and takes a
  /// lifetime ref on this version. The pending-count increment is seq_cst —
  /// the write half of the Dekker pairing with the retiring writer's
  /// readers_pending() probe (a relaxed increment here could let an
  /// in-place-reusing writer miss a just-registered reader).
  void register_reader() {
    rc().refs.fetch_add(1, std::memory_order_relaxed);
    rc().readers_pending.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Record a validated reader task for WAR edges (strong ref) — needed only
  /// with renaming disabled, whose submissions are serialized; the renaming
  /// configuration never touches the vector.
  void record_reader(TaskNode* reader) {
    reader->add_ref();
    reader_tasks_.push_back(reader);
  }

  /// Undo a speculative registration that failed chain-head validation (the
  /// version was superseded — or died and was recycled — between the load
  /// and the pin). Identical to a reader finishing: the pair is net-zero on
  /// whatever tenancy the counters belong to now.
  void abort_reader_registration(RenamePool& pool) noexcept {
    reader_finished(pool);
  }

  /// Pending readers right now. seq_cst: the read half of the Dekker pairing
  /// (see register_reader) — a writer that just swung the chain head and
  /// reads 0 here is guaranteed no reader can still validate against the
  /// superseded version.
  int readers_pending() const noexcept {
    return rc().readers_pending.load(std::memory_order_seq_cst);
  }

  /// Submission-order view of recorded reader tasks (WAR edges in the
  /// no-renaming configuration, whose submissions are serialized).
  const SmallVector<TaskNode*, 4>& reader_tasks() const noexcept {
    return reader_tasks_;
  }

  // --- token release (any thread) -------------------------------------------

  /// A reading task finished: drop its pending-reader mark, then its ref.
  void reader_finished(RenamePool& pool) noexcept {
    rc().readers_pending.fetch_sub(1, std::memory_order_acq_rel);
    release(pool);
  }

  /// Take one additional lifetime reference (spectulative pins go through
  /// register_reader; this is for already-validated holders).
  void add_ref() noexcept { rc().refs.fetch_add(1, std::memory_order_relaxed); }

  /// Drop one lifetime reference; destroys the version at zero. The last
  /// reference transitions the persistent count 1 -> kDeadBias in a single
  /// CAS, so the block is never observed at 0 (see file comment).
  void release(RenamePool& pool) noexcept;

  /// Transfer storage ownership out of this version (used when a successor
  /// version reuses the same bytes in place): the buffer will no longer be
  /// freed when this version dies. Only the (unique) superseding writer may
  /// call this, and only after observing readers_pending() == 0.
  void disown_storage() noexcept { renamed_ = false; }

 private:
  Version(DataEntry* entry, void* storage, std::size_t bytes, bool renamed,
          TaskNode* producer, SlabPool* vpool);
  ~Version();

  RefCell& rc() const noexcept {
    return *reinterpret_cast<RefCell*>(
        reinterpret_cast<char*>(const_cast<Version*>(this)) - kPrefixBytes);
  }

  DataEntry* entry_;
  std::atomic<void*> storage_;
  std::size_t bytes_;
  bool renamed_;
  TaskNode* producer_;  // strong ref; null for initial versions
  SlabPool* vpool_;     // the type-stable pool this block came from
  AccessGroup* group_;  // commuting group targeting this version, or null
  std::atomic<bool> produced_;
  SmallVector<TaskNode*, 4> reader_tasks_;  // strong refs, submission-order writes
};

constexpr std::size_t Version::block_bytes() noexcept {
  return kPrefixBytes + sizeof(Version);
}

/// Per-datum bookkeeping (address-mode analysis). Entries live in the
/// analyzer's lock-free chained hash table (one bucket array with
/// CAS-insert; see DependencyAnalyzer) and are address-stable for the phase:
/// versions point back at their entry, and entries are only freed at
/// flush_all(), which requires quiescence. Only submitters (and wait_on)
/// touch an entry; the retiring workers never write it.
struct DataEntry {
  void* user_ptr = nullptr;  ///< the address the program passes to tasks
  /// Hash-chain link (prepend-only until flush).
  std::atomic<DataEntry*> next{nullptr};
  /// Largest extent ever *written* at this address. Invariant: the latest
  /// version always covers all of it (smaller writes inherit the
  /// predecessor's tail), so copying back `latest` alone restores the
  /// datum — see DependencyAnalyzer::process_write. Maintained with
  /// fetch-max under concurrent writers.
  std::atomic<std::size_t> bytes{0};
  /// The chain head (owns the latest-token). Swung by CAS in every
  /// configuration; a single submitter's CAS never retries.
  std::atomic<Version*> latest{nullptr};
  /// The last version whose storage is the user buffer, set (with a ref) by
  /// the first renaming write that leaves it; null while every version is
  /// still there. The versions in the user buffer are a prefix of the chain,
  /// and in-place reuse orders each after its predecessor's producer and
  /// readers, so this one being produced with no pending reader means no
  /// task touches the user buffer any more: the condition wait_on() needs
  /// before copying a renamed latest version into it. A growing inout's
  /// copy-in of user-buffer tail bytes registers as its reader for that.
  std::atomic<Version*> user_tail{nullptr};
};

}  // namespace smpss
