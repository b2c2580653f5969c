#include "runtime/config.hpp"

#include <limits>
#include <optional>
#include <string>

#include "common/affinity.hpp"
#include "common/check.hpp"
#include "common/env.hpp"

namespace smpss {

namespace {

// A variable that is set must parse and lie in range (see config.hpp).
void require(bool ok, const char* name, const char* accepts) {
  if (ok) return;
  const std::string msg = std::string(name) + "=\"" + *env_string(name) +
                          "\" is invalid; it accepts " + accepts;
  SMPSS_CHECK(ok, msg.c_str());
}

/// A set integer variable, checked against [min, UINT_MAX] for min 0 or 1.
std::optional<unsigned> int_var(const char* name, long long min) {
  if (!env_string(name)) return std::nullopt;
  const std::optional<long long> v = env_int(name);
  require(v && *v >= min && *v <= std::numeric_limits<unsigned>::max(), name,
          min > 0 ? "a positive integer" : "a non-negative integer");
  return static_cast<unsigned>(*v);
}

std::optional<bool> bool_var(const char* name) {
  if (!env_string(name)) return std::nullopt;
  const std::optional<bool> v = env_bool(name);
  require(v.has_value(), name, "0/1, true/false, on/off or yes/no");
  return v;
}

}  // namespace

Config Config::from_env() {
  Config c;
  if (auto v = int_var("SMPSS_NUM_THREADS", 1)) c.num_threads = *v;
  if (auto v = int_var("SMPSS_TASK_WINDOW", 1)) c.task_window = *v;
  if (auto v = int_var("SMPSS_RENAME_MEMORY_MB", 1))
    c.rename_memory_limit = static_cast<std::size_t>(*v) << 20;
  if (auto v = bool_var("SMPSS_RENAMING")) c.renaming = *v;
  if (auto v = bool_var("SMPSS_NESTED")) c.nested_tasks = *v;
  if (auto v = int_var("SMPSS_CHAIN_DEPTH", 0)) c.chain_depth = *v;
  if (auto v = env_string("SMPSS_SCHEDULER")) {
    require(*v == "distributed" || *v == "centralized", "SMPSS_SCHEDULER",
            "distributed or centralized");
    c.scheduler_mode = *v == "centralized" ? SchedulerMode::Centralized
                                           : SchedulerMode::Distributed;
  }
  if (auto v = env_string("SMPSS_STEAL_ORDER")) {
    require(*v == "creation" || *v == "random", "SMPSS_STEAL_ORDER",
            "creation or random");
    c.steal_order =
        *v == "random" ? StealOrder::Random : StealOrder::CreationOrder;
  }
  if (auto v = bool_var("SMPSS_PIN_THREADS")) c.pin_threads = *v;
  if (auto v = bool_var("SMPSS_TRACE")) c.tracing = *v;
  if (auto v = bool_var("SMPSS_RECORD_GRAPH")) c.record_graph = *v;
  if (auto v = int_var("SMPSS_STATS_PERIOD_MS", 0)) c.stats_period_ms = *v;
  if (auto v = env_string("SMPSS_STATS_FILE")) c.stats_path = *v;
  return c;
}

void Config::normalize() {
  if (num_threads == 0) num_threads = hardware_concurrency();
  if (num_threads < 1) num_threads = 1;
  if (task_window < 2) task_window = 2;
}

}  // namespace smpss
