#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace licomk::util {

namespace {
std::string trim(const std::string& s) {
  auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}
}  // namespace

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw ConfigError("config line " + std::to_string(lineno) + ": unterminated section");
      }
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("config line " + std::to_string(lineno) + ": expected key = value");
    }
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("config line " + std::to_string(lineno) + ": empty key");
    }
    if (!section.empty()) key = section + "." + key;
    cfg.set(key, value);
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_string(buffer.str());
}

void Config::set(const std::string& key, const std::string& value) {
  if (values_.find(key) == values_.end()) order_.push_back(key);
  values_[key] = value;
}

void Config::set_int(const std::string& key, long long value) { set(key, std::to_string(value)); }

void Config::set_double(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  set(key, os.str());
}

void Config::set_bool(const std::string& key, bool value) { set(key, value ? "true" : "false"); }

bool Config::has(const std::string& key) const { return values_.count(key) > 0; }

std::optional<std::string> Config::find(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key) const {
  auto v = find(key);
  if (!v) throw ConfigError("missing config key: " + key);
  return *v;
}

long long Config::get_int(const std::string& key) const {
  auto v = get_string(key);
  try {
    size_t pos = 0;
    long long out = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing");
    return out;
  } catch (const std::exception&) {
    throw ConfigError("config key " + key + " is not an integer: '" + v + "'");
  }
}

double Config::get_double(const std::string& key) const {
  auto v = get_string(key);
  const char* begin = v.c_str();
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(begin, &end);
  // ERANGE also flags underflow, whose subnormal (or zero) result is a
  // valid value; only an overflow to ±HUGE_VAL is out of range.
  const bool overflow = errno == ERANGE && std::fabs(out) == HUGE_VAL;
  if (v.empty() || end != begin + v.size() || overflow) {
    throw ConfigError("config key " + key + " is not a number: '" + v + "'");
  }
  return out;
}

bool Config::get_bool(const std::string& key) const {
  auto v = lower(get_string(key));
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  throw ConfigError("config key " + key + " is not a boolean: '" + v + "'");
}

std::string Config::get_string_or(const std::string& key, const std::string& dflt) const {
  auto v = find(key);
  return v ? *v : dflt;
}

long long Config::get_int_or(const std::string& key, long long dflt) const {
  return has(key) ? get_int(key) : dflt;
}

double Config::get_double_or(const std::string& key, double dflt) const {
  return has(key) ? get_double(key) : dflt;
}

bool Config::get_bool_or(const std::string& key, bool dflt) const {
  return has(key) ? get_bool(key) : dflt;
}

std::vector<std::string> Config::keys() const { return order_; }

std::string Config::to_string() const {
  std::ostringstream os;
  for (const auto& key : order_) os << key << " = " << values_.at(key) << "\n";
  return os.str();
}

}  // namespace licomk::util
