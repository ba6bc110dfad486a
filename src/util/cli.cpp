#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace looplynx::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // Space-separated "--key value": the flag greedily takes the next
      // non-option token as its value.
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::optional<std::string> Cli::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& name, std::string fallback) const {
  const auto v = get(name);
  return v ? *v : std::move(fallback);
}

long long Cli::get_int_or(const std::string& name, long long fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + name +
                                " expects a 64-bit integer, got \"" + *v +
                                "\"");
  }
  return value;
}

double Cli::get_double_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return std::strtod(v->c_str(), nullptr);
}

bool Cli::get_bool_or(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") {
    return true;
  }
  return false;
}

}  // namespace looplynx::util
