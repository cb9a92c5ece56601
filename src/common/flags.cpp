#include "common/flags.h"

#include <algorithm>
#include <charconv>

namespace congos {

namespace {
bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}
}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself a flag; otherwise a
    // boolean switch.
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[body] = argv[i + 1];
      ++i;
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const { return values_.contains(name); }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {
/// True when the whole of `text` is one number of type T in range.
template <class T>
bool parse_number(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}
}  // namespace

void Flags::note_malformed(const std::string& name) const {
  if (std::find(malformed_.begin(), malformed_.end(), name) == malformed_.end()) {
    malformed_.push_back(name);
  }
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t v = 0;
  if (parse_number(it->second, &v)) return v;
  note_malformed(name);
  return fallback;
}

double Flags::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double v = 0;
  if (parse_number(it->second, &v)) return v;
  note_malformed(name);
  return fallback;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return fallback;
}

std::vector<std::string> Flags::unknown_keys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [key, _] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace congos
