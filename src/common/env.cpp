#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace smpss {

std::optional<std::string> env_string(const char* name) {
  const char* v = std::getenv(name);
  if (!v || !*v) return std::nullopt;
  return std::string(v);
}

std::optional<long long> env_int(const char* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  // The whole value must be the number: "4x" is not 4.
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0' || errno == ERANGE)
    return std::nullopt;
  return v;
}

std::optional<bool> env_bool(const char* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  std::string low = *s;
  std::transform(low.begin(), low.end(), low.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (low == "1" || low == "true" || low == "on" || low == "yes") return true;
  if (low == "0" || low == "false" || low == "off" || low == "no") return false;
  return std::nullopt;
}

}  // namespace smpss
