// Periodic JSON stats exporter for service mode: one self-contained line
// per period (newline-delimited JSON, so `tail -f | jq` just works), plus
// one final line at shutdown so short runs still export. The exporter is a
// plain consumer of Runtime::stats(); it owns no counters of its own.
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/timing.hpp"
#include "runtime/runtime.hpp"

namespace smpss {

namespace {

/// write(2) the whole buffer, resuming across EINTR/short writes. The first
/// write almost always lands the full line in one syscall, which is what
/// keeps concurrent appenders (O_APPEND) from interleaving bytes.
void write_full(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // stats are best-effort; never take the runtime down
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Minimal JSON string escaping (stream names are caller-chosen).
void append_escaped(std::string& out, const std::string& in) {
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_u64(std::string& out, const char* key, std::uint64_t v,
                bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64 "%s", key, v,
                comma ? "," : "");
  out += buf;
}

const char* phase_name(std::uint8_t p) {
  switch (p) {
    case 0: return "open";
    case 1: return "draining";
    default: return "closed";
  }
}

}  // namespace

std::string Runtime::stats_json(double tasks_per_s) const {
  const StatsSnapshot s = stats();
  std::string out;
  out.reserve(1024 + 384 * s.workers.size() + 256 * s.streams.size());
  out += '{';
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"ts_ms\":%.3f,", now_ns() / 1e6);
  out += buf;
  if (tasks_per_s >= 0) {
    std::snprintf(buf, sizeof buf, "\"tasks_per_s\":%.1f,", tasks_per_s);
    out += buf;
  }
  append_u64(out, "tasks_spawned", s.tasks_spawned);
  // One key per counter-table row (common/counters.hpp), named as the row.
#define SMPSS_JSON_FIELD(name) append_u64(out, #name, s.name);
#define SMPSS_JSON_TOTAL(row, total) append_u64(out, #total, s.total);
  SMPSS_SUBMIT_COUNTERS(SMPSS_JSON_FIELD)
  SMPSS_DEP_COUNTERS(SMPSS_JSON_FIELD)
  SMPSS_WORKER_COUNTERS(SMPSS_JSON_TOTAL)
#undef SMPSS_JSON_FIELD
#undef SMPSS_JSON_TOTAL
  const std::uint64_t live = s.tasks_spawned - s.tasks_executed;
  append_u64(out, "tasks_live", live);
  append_u64(out, "task_window", cfg_.task_window);
  std::snprintf(buf, sizeof buf, "\"window_occupancy\":%.4f,",
                cfg_.task_window > 0
                    ? static_cast<double>(live) /
                          static_cast<double>(cfg_.task_window)
                    : 0.0);
  out += buf;
  append_u64(out, "renames", s.renames);
  append_u64(out, "rename_bytes", s.rename_bytes_total);
  out += "\"workers\":[";
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const WorkerStatsRow& w = s.workers[i];
    if (i != 0) out += ',';
    out += '{';
    append_u64(out, "tid", i);
#define SMPSS_JSON_ROW(row, total) append_u64(out, #row, w.row);
    SMPSS_WORKER_COUNTERS(SMPSS_JSON_ROW)
#undef SMPSS_JSON_ROW
    out.back() = '}';  // replaces the last row's comma
  }
  out += "],";
  append_u64(out, "stream_submitted", s.stream_submitted);
  append_u64(out, "stream_retired", s.stream_retired);
  append_u64(out, "stream_throttled", s.stream_throttled);
  append_u64(out, "latency_count", s.service_latency_count);
  append_u64(out, "p50_ns", s.service_p50_ns);
  append_u64(out, "p99_ns", s.service_p99_ns);
  append_u64(out, "snapshot_epoch", s.snapshot_epoch);
  out += s.snapshot_consistent ? "\"snapshot_consistent\":true,"
                               : "\"snapshot_consistent\":false,";
  out += "\"streams\":[";
  for (std::size_t i = 0; i < s.streams.size(); ++i) {
    const StreamStats& r = s.streams[i];
    if (i != 0) out += ',';
    out += '{';
    append_u64(out, "id", r.id);
    out += "\"name\":\"";
    append_escaped(out, r.name);
    out += "\",";
    std::snprintf(buf, sizeof buf, "\"phase\":\"%s\",",
                  phase_name(r.phase));
    out += buf;
    append_u64(out, "weight", r.weight);
    append_u64(out, "submitted", r.submitted);
    append_u64(out, "retired", r.retired);
    append_u64(out, "live",
               r.live > 0 ? static_cast<std::uint64_t>(r.live) : 0);
    append_u64(out, "throttled", r.throttled);
    append_u64(out, "callbacks_run", r.callbacks_run);
    append_u64(out, "rename_bytes", r.rename_bytes);
    append_u64(out, "latency_count", r.latency_count);
    append_u64(out, "p50_ns", r.latency_p50_ns);
    append_u64(out, "p99_ns", r.latency_p99_ns, /*comma=*/false);
    out += '}';
  }
  out += "]}";
  return out;
}

void Runtime::stats_exporter_main() {
  // One write(2) per line against an O_APPEND descriptor: the kernel appends
  // the whole line atomically, so lines from several exporting processes
  // sharing one file never interleave, and a kill can at worst truncate the
  // final line.
  int fd = -1;
  if (!cfg_.stats_path.empty())
    fd = ::open(cfg_.stats_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  const bool own_fd = fd >= 0;
  if (fd < 0) fd = STDERR_FILENO;

  std::uint64_t prev_executed = 0;
  std::uint64_t prev_ns = now_ns();
  for (;;) {
    bool stop;
    {
      std::unique_lock<std::mutex> lk(stats_mu_);
      stats_cv_.wait_for(lk, std::chrono::milliseconds(cfg_.stats_period_ms),
                         [&] { return stats_stop_; });
      stop = stats_stop_;
    }
    const StatsSnapshot s = stats();
    const std::uint64_t now = now_ns();
    const double dt = static_cast<double>(now - prev_ns) / 1e9;
    const double rate =
        dt > 0 ? static_cast<double>(s.tasks_executed - prev_executed) / dt
               : 0.0;
    prev_ns = now;
    prev_executed = s.tasks_executed;
    std::string line = stats_json(rate);
    line += '\n';
    write_full(fd, line.data(), line.size());
    if (stop) break;  // the post-stop pass is the final line
  }
  if (own_fd) ::close(fd);
}

}  // namespace smpss
