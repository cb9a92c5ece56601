// Minimal command-line flag parsing for the CLI tools.
//
// Supported forms: --key=value, --key value, --switch (boolean true),
// plus bare positional arguments. No registration step: callers query by
// name with a default, and can list unknown keys to reject typos and
// malformed numbers to reject bad values.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace congos {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// The numeric getters accept a value only when all of it is one number
  /// in range ("-5", "0.25"). Anything else - trailing characters ("12abc",
  /// "0.5x"), an empty value, no digits at all, a bare --switch, overflow -
  /// yields `fallback` and is recorded in malformed().
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// --flag and --flag=true/1/yes are true; --flag=false/0/no is false.
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys present on the command line but not in `known` (typo detection).
  std::vector<std::string> unknown_keys(const std::vector<std::string>& known) const;

  /// Keys whose value a numeric getter refused, in the order first queried.
  /// A tool reads its flags, then refuses to run while this is non-empty.
  const std::vector<std::string>& malformed() const { return malformed_; }

 private:
  /// Records `name` in malformed_, once.
  void note_malformed(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> malformed_;
};

}  // namespace congos
