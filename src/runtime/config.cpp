#include "runtime/config.hpp"

#include "common/affinity.hpp"
#include "common/env.hpp"

namespace smpss {

Config Config::from_env() {
  Config c;
  if (auto v = env_int("SMPSS_NUM_THREADS"); v && *v > 0)
    c.num_threads = static_cast<unsigned>(*v);
  if (auto v = env_int("SMPSS_TASK_WINDOW"); v && *v > 0)
    c.task_window = static_cast<std::size_t>(*v);
  if (auto v = env_int("SMPSS_RENAME_MEMORY_MB"); v && *v > 0)
    c.rename_memory_limit = static_cast<std::size_t>(*v) << 20;
  if (auto v = env_bool("SMPSS_RENAMING")) c.renaming = *v;
  if (auto v = env_bool("SMPSS_NESTED")) c.nested_tasks = *v;
  if (auto v = env_int("SMPSS_CHAIN_DEPTH"); v && *v >= 0)
    c.chain_depth = static_cast<unsigned>(*v);
  if (auto v = env_string("SMPSS_SCHEDULER")) {
    if (*v == "centralized") c.scheduler_mode = SchedulerMode::Centralized;
    if (*v == "distributed") c.scheduler_mode = SchedulerMode::Distributed;
  }
  if (auto v = env_string("SMPSS_STEAL_ORDER")) {
    if (*v == "random") c.steal_order = StealOrder::Random;
    if (*v == "creation") c.steal_order = StealOrder::CreationOrder;
  }
  if (auto v = env_bool("SMPSS_PIN_THREADS")) c.pin_threads = *v;
  if (auto v = env_bool("SMPSS_TRACE")) c.tracing = *v;
  if (auto v = env_bool("SMPSS_RECORD_GRAPH")) c.record_graph = *v;
  if (auto v = env_int("SMPSS_STREAMS"); v && *v > 0)
    c.max_streams = static_cast<unsigned>(*v);
  if (auto v = env_int("SMPSS_STATS_PERIOD_MS"); v && *v >= 0)
    c.stats_period_ms = static_cast<unsigned>(*v);
  if (auto v = env_string("SMPSS_STATS_FILE")) c.stats_path = *v;
  return c;
}

void Config::normalize() {
  if (num_threads == 0) num_threads = hardware_concurrency();
  if (num_threads < 1) num_threads = 1;
  if (task_window < 2) task_window = 2;
  if (max_streams == 0) max_streams = 1;
}

}  // namespace smpss
