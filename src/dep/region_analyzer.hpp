// Region-mode dependency analysis — the language extension of paper Sec. V.A.
//
// The paper *proposes* region specifiers ({l..u} | {l:L} | {}) but notes its
// runtime "does not yet include support for array regions"; this class
// implements them. Per base array we keep the set of live region accesses;
// a new access gains an edge from every live access it conflicts with
// (write/read, read/write or write/write on overlapping rectangles).
//
// Renaming is deliberately NOT applied across region accesses: partially
// overlapping writes cannot be renamed consistently — the same caveat the
// paper raises for representants ("representants cannot be reliably used if
// there are false dependencies between the represented data").
//
// Threading: main thread only in the paper-faithful configuration. With
// concurrent submitters (nested mode) the Runtime guards this class with a
// dedicated reader-writer lock: region-qualified submissions hold it
// exclusively, and address-mode submissions hold it shared just long enough
// for the mixed-mode diagnosis (tracks()). The counters are atomic cells,
// so stats() reads them without the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/counters.hpp"
#include "dep/access.hpp"
#include "graph/graph_recorder.hpp"
#include "graph/task.hpp"

namespace smpss {

class RegionAnalyzer {
 public:
  explicit RegionAnalyzer(GraphRecorder* recorder) noexcept
      : recorder_(recorder) {}
  RegionAnalyzer(const RegionAnalyzer&) = delete;
  RegionAnalyzer& operator=(const RegionAnalyzer&) = delete;
  ~RegionAnalyzer() { flush_all(); }

  /// Analyze one region-qualified parameter. The resolved storage is always
  /// the program's own array (regions never relocate data); the return value
  /// exists for symmetry with DependencyAnalyzer.
  void* process(TaskNode* task, const AccessDesc& access);

  /// Drop all access records (barrier time; all tasks complete).
  void flush_all();

  bool tracks(const void* addr) const {
    return arrays_.find(addr) != arrays_.end();
  }

  /// Lock-free probe: has any region access been registered since the last
  /// flush? Address-mode submitters use it to skip the region rwlock (and
  /// the tracks() diagnosis) entirely while the program never touches
  /// region mode — the overwhelmingly common case.
  bool maybe_tracking() const noexcept {
    return tracked_live_.load(std::memory_order_acquire) != 0;
  }

  const DepCounters& counters() const noexcept { return counters_; }

 private:
  struct AccessRec {
    Region region;
    TaskNode* task;  // strong ref
    bool writes;
  };
  struct ArrayEntry {
    std::vector<AccessRec> live;
    std::size_t elem_bytes = 0;
  };

  GraphRecorder* recorder_;
  DepCounters counters_;
  std::unordered_map<const void*, ArrayEntry> arrays_;
  std::atomic<std::size_t> tracked_live_{0};  ///< arrays_.size(), lock-free
};

}  // namespace smpss
