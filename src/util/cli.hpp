// Tiny command-line option parser for example binaries and bench harnesses.
//
// Accepts "--key=value", space-separated "--key value", and bare "--flag"
// forms. The space form makes a flag greedy: a "--key" immediately followed
// by a token that does not start with "--" takes that token as its value,
// so a positional argument cannot directly follow a bare flag (none of the
// repo's binaries use positionals — the greedy rule trades that corner for
// the form operators actually type). Other non-option arguments are
// collected in order.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace looplynx::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if --name was given (with or without a value).
  bool has(const std::string& name) const;

  /// Value of --name, or std::nullopt.
  std::optional<std::string> get(const std::string& name) const;

  std::string get_or(const std::string& name, std::string fallback) const;
  /// Throws std::invalid_argument unless the value is a whole base-10
  /// number that fits in long long (a bare flag yields `fallback`).
  long long get_int_or(const std::string& name, long long fallback) const;
  double get_double_or(const std::string& name, double fallback) const;
  bool get_bool_or(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace looplynx::util
