// Records the dynamically generated task graph (nodes in invocation order,
// edges by kind) for post-mortem inspection: DOT export (paper Fig. 5),
// structural statistics, and the paper-exact count assertions in the tests.
//
// With concurrent submitters (nested mode), nodes and edges may be recorded
// by several submitters at once, so the record calls serialize on an
// internal mutex — taken only when
// recording is enabled, which keeps the default configuration free of it.
// The read accessors are for quiescent post-barrier inspection.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace smpss {

enum class EdgeKind : std::uint8_t {
  True,   ///< RAW — the only kind present when renaming is enabled
  Anti,   ///< WAR — appears only with renaming disabled
  Output, ///< WAW — appears only with renaming disabled
  Member  ///< commuting-group member → group-close node (no ordering among
          ///< members; see dep/access_group.hpp). Not a data dependence —
          ///< the sched-sim treats it as a completion edge only.
};

class GraphRecorder {
 public:
  struct NodeRec {
    std::uint64_t seq;       ///< 1-based invocation order (Fig. 5 numbering)
    std::uint32_t type_id;
  };
  struct EdgeRec {
    std::uint64_t from;
    std::uint64_t to;
    EdgeKind kind;
  };

  GraphRecorder() = default;

  // Movable for test/tool construction convenience; the internal mutex is
  // not state, so moving just transfers the records. Callers must not move
  // a recorder that concurrent submitters are still writing to.
  GraphRecorder(GraphRecorder&& other) noexcept
      : enabled_(other.enabled_),
        nodes_(std::move(other.nodes_)),
        edges_(std::move(other.edges_)) {}
  GraphRecorder& operator=(GraphRecorder&& other) noexcept {
    enabled_ = other.enabled_;
    nodes_ = std::move(other.nodes_);
    edges_ = std::move(other.edges_);
    return *this;
  }

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  void record_node(std::uint64_t seq, std::uint32_t type_id) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    nodes_.push_back(NodeRec{seq, type_id});
  }
  void record_edge(std::uint64_t from, std::uint64_t to, EdgeKind kind) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    edges_.push_back(EdgeRec{from, to, kind});
  }

  const std::vector<NodeRec>& nodes() const noexcept { return nodes_; }
  const std::vector<EdgeRec>& edges() const noexcept { return edges_; }

  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    nodes_.clear();
    edges_.clear();
  }

 private:
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<NodeRec> nodes_;
  std::vector<EdgeRec> edges_;
};

}  // namespace smpss
