#include "dep/version.hpp"

#include <new>

#include "dep/access_group.hpp"
#include "dep/renaming.hpp"

namespace smpss {

Version* Version::create(SlabPool& vpool, unsigned slot, DataEntry* entry,
                         void* storage, std::size_t bytes, bool renamed,
                         TaskNode* producer) {
  void* mem = vpool.allocate(slot);
  const std::uint64_t init = producer ? 2 : 1;  // latest (+ producer) token
  auto* cell = static_cast<RefCell*>(mem);
  if (vpool.generation_of(mem) == 1) {
    // First tenancy of this block: the persistent counter cell does not
    // exist yet. Nobody else can hold a pointer into the block, so a plain
    // construction is race-free exactly once.
    ::new (cell) RefCell{};
    cell->word.store(init, std::memory_order_relaxed);
  } else {
    // Revival: the refs half idles at kDeadBias plus any in-flight phantom
    // excursions, which must stay counted (in both halves) — hence adding
    // init - kDeadBias to the refs half, never a store. The refs half is at
    // least kDeadBias, so the subtraction borrows nothing from the readers
    // half.
    cell->word.fetch_sub(kDeadBias - init, std::memory_order_relaxed);
  }
  return ::new (static_cast<char*>(mem) + kPrefixBytes)
      Version(entry, storage, bytes, renamed, producer, &vpool);
}

Version::Version(DataEntry* entry, void* storage, std::size_t bytes,
                 bool renamed, TaskNode* producer, SlabPool* vpool)
    : storage_(storage),
      bytes_(bytes),
      producer_(producer),
      produced_(producer == nullptr),  // initial versions are already valid
      renamed_(renamed),
      group_(nullptr),
      entry_(entry),
      vpool_(vpool) {
  if (producer_) producer_->add_ref();
}

Version::~Version() {
  if (producer_) producer_->release();
  if (group_) group_->release();
  for (TaskNode* t : reader_tasks_) t->release();
}

void Version::drop(RenamePool& pool, std::uint64_t what) noexcept {
  std::atomic<std::uint64_t>& word = rc().word;
  std::uint64_t cur = word.load(std::memory_order_relaxed);
  while (true) {
    const std::uint64_t refs = cur & 0xffffffffu;
    SMPSS_ASSERT(refs >= 1 && cur >= what);
    // The last live reference parks the refs half directly at kDeadBias —
    // one atomic step, so no thread ever observes 0 and a phantom decrement
    // on the dead block cannot reach the free path again. Every pending
    // reader and in-flight pin holds a ref, so the readers half is 0 then.
    const std::uint64_t next = cur - what + (refs == 1 ? kDeadBias : 0);
    SMPSS_ASSERT(refs != 1 || (next >> 32) == 0);
    if (word.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
      if (refs != 1) return;
      break;
    }
  }
  SlabPool* vpool = vpool_;
  if (renamed_)
    pool.deallocate(storage_.load(std::memory_order_relaxed), bytes_);
  this->~Version();
  vpool->deallocate(reinterpret_cast<char*>(this) - kPrefixBytes);
}

}  // namespace smpss
