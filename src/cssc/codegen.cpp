#include "cssc/codegen.hpp"

#include <sstream>

namespace smpss::cssc {

namespace {

const char* dir_call(Direction d) {
  switch (d) {
    case Direction::Input: return "smpss::in";
    case Direction::Output: return "smpss::out";
    case Direction::Inout: return "smpss::inout";
    case Direction::Commutative: return "smpss::commutative";
    case Direction::Concurrent: break;  // needs the operator argument
  }
  return "?";
}

/// Element count from the declaration dims and/or clause dims (clause dims
/// win: "the task construct specifies the size of each parameter if it is
/// missing in the C declaration").
std::string count_expr(const FuncParam& fp, const ClauseParam* cp) {
  const std::vector<std::string>& dims =
      (cp && !cp->dims.empty()) ? cp->dims : fp.decl_dims;
  if (dims.empty()) return "1";
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) out += " * ";
    out += "static_cast<std::size_t>(" + dims[i] + ")";
  }
  return out;
}

std::string region_expr(const std::vector<RegionSpec>& regions) {
  std::string out = "smpss::Region{{";
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (i) out += ", ";
    const RegionSpec& r = regions[i];
    switch (r.kind) {
      case RegionSpec::Kind::Bounds:
        out += "smpss::Bound::closed(" + r.lo + ", " + r.hi_or_len + ")";
        break;
      case RegionSpec::Kind::Length:
        out += "smpss::Bound::length(" + r.lo + ", " + r.hi_or_len + ")";
        break;
      case RegionSpec::Kind::Full:
        out += "smpss::Bound::whole()";
        break;
    }
  }
  out += "}}";
  return out;
}

/// The C++ parameter type of the spawn adapter for one function parameter.
std::string adapter_param_type(const FuncParam& fp) {
  if (fp.is_pointer || !fp.decl_dims.empty())
    return fp.type_text + "*";
  return fp.type_text;
}

}  // namespace

std::string generate_task(const TaskDecl& task) {
  std::ostringstream os;
  os << "// --- task " << task.name << " (line " << task.line << ")";
  if (task.high_priority) os << " [highpriority]";
  os << "\n";

  os << "inline smpss::TaskType register_" << task.name
     << "(smpss::Runtime& rt) {\n"
     << "  return rt.register_task_type(\"" << task.name << "\", "
     << (task.high_priority ? "true" : "false") << ");\n}\n\n";

  // Spawn adapter. The body is passed in (the annotated function itself or
  // a kernel-calling lambda); parameters keep the declaration's names.
  os << "template <typename Fn>\n";
  os << "inline void spawn_" << task.name
     << "(smpss::Runtime& rt, smpss::TaskType type, Fn&& body";
  for (const FuncParam& p : task.params)
    os << ",\n    " << adapter_param_type(p) << " " << p.name;
  os << ") {\n";
  os << "  rt.spawn(type, std::forward<Fn>(body)";
  for (const FuncParam& p : task.params) {
    auto occ = task.occurrences(p.name);
    os << ",\n      ";
    if (occ.empty()) {
      // Not named in any clause: void* stays opaque (the paper's rule);
      // other pointers are conservatively opaque too; scalars go by value.
      if (p.is_pointer) {
        os << "smpss::opaque(" << p.name << ")";
      } else {
        os << "smpss::value(" << p.name << ")";
      }
      continue;
    }
    if (!p.is_pointer) {
      // Scalars listed in input(...) (Fig. 7 style): pass by value.
      os << "smpss::value(" << p.name << ")";
      continue;
    }
    bool first = true;
    for (const auto& [dir, cp] : occ) {
      if (!first) os << ",\n      ";
      first = false;
      if (dir == Direction::Concurrent) {
        // The pragma vocabulary has no operator syntax; `concurrent`
        // lowers to the additive reduction (the CellSs/SMPSs use case) —
        // other operators go through the typed API directly.
        os << "smpss::reduction(smpss::Plus{}, " << p.name << ", "
           << count_expr(p, cp) << ")";
      } else if (!cp->regions.empty()) {
        os << dir_call(dir) << "(" << p.name << ", "
           << region_expr(cp->regions) << ")";
      } else {
        os << dir_call(dir) << "(" << p.name << ", " << count_expr(p, cp)
           << ")";
      }
    }
  }
  os << ");\n}\n\n";
  return os.str();
}

std::string generate(const TranslationUnit& tu, const CodegenOptions& opts) {
  std::ostringstream os;
  os << "// Generated by cssc — the SMPSs source-to-source translator.\n"
     << "// Do not edit; regenerate from the annotated source.\n"
     << "#pragma once\n\n"
     << "#include <cstddef>\n"
     << "#include <utility>\n\n"
     << "#include \"runtime/runtime.hpp\"\n\n"
     << "namespace " << opts.ns << " {\n\n";
  for (const TaskDecl& t : tu.tasks) os << generate_task(t);

  int barriers = 0, waits = 0;
  for (const OtherPragma& p : tu.others) {
    if (p.kind == OtherPragma::Kind::Barrier) ++barriers;
    if (p.kind == OtherPragma::Kind::WaitOn) ++waits;
  }
  os << "// source contained " << tu.tasks.size() << " task(s), " << barriers
     << " barrier pragma(s), " << waits << " wait-on pragma(s)\n";
  os << "\n}  // namespace " << opts.ns << "\n";
  return os.str();
}

}  // namespace smpss::cssc
