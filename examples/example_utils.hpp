// Shared helpers for the example executables: a tiny --flag=value
// parser and an ASCII volume renderer (the Fig 1 stand-in).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace cf::examples {

/// Parses --key=value (and bare --key, read as "1") arguments against
/// `keys`, the flags the program reads. `--help` prints `usage` and
/// exits 0; a key not in `keys`, or an argument without `--`, prints it
/// and exits 2 — both before the program does any work.
class Flags {
 public:
  Flags(int argc, char** argv, const std::string& usage,
        std::initializer_list<const char*> keys)
      : keys_(keys.begin(), keys.end()) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") {
        std::printf("%s\n", usage.c_str());
        std::exit(0);
      }
      if (arg.rfind("--", 0) != 0) reject(arg, usage);
      const std::size_t eq = arg.find('=');
      const std::string key =
          arg.substr(2, eq == std::string::npos ? eq : eq - 2);
      if (!known(key)) reject(arg, usage);
      values_[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    }
  }

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const std::string* value = find(key);
    return value == nullptr ? fallback : std::stoll(*value);
  }

  double get_double(const std::string& key, double fallback) const {
    const std::string* value = find(key);
    return value == nullptr ? fallback : std::stod(*value);
  }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    const std::string* value = find(key);
    return value == nullptr ? fallback : *value;
  }

 private:
  [[noreturn]] static void reject(const std::string& arg,
                                  const std::string& usage) {
    std::fprintf(stderr, "unexpected argument '%s'\n%s\n", arg.c_str(),
                 usage.c_str());
    std::exit(2);
  }

  bool known(const std::string& key) const {
    return std::find(keys_.begin(), keys_.end(), key) != keys_.end();
  }

  /// The value given for `key`, or null. Reading a key missing from
  /// the constructor's list throws: no command line could set it.
  const std::string* find(const std::string& key) const {
    if (!known(key)) {
      throw std::logic_error("Flags: --" + key + " is not a declared flag");
    }
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::vector<std::string> keys_;
  std::map<std::string, std::string> values_;
};

/// Renders a depth-projected {1, D, H, W} volume as ASCII art — the
/// terminal's version of the paper's Fig 1 sub-volume rendering.
inline void render_volume_ascii(const tensor::Tensor& volume) {
  const std::int64_t d = volume.shape()[1];
  const std::int64_t h = volume.shape()[2];
  const std::int64_t w = volume.shape()[3];
  const char* shades = " .:-=+*#%@";
  float max_column = 1e-6f;
  std::vector<float> projected(static_cast<std::size_t>(h * w), 0.0f);
  for (std::int64_t z = 0; z < d; ++z) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        projected[static_cast<std::size_t>(y * w + x)] +=
            volume.at({0, z, y, x});
      }
    }
  }
  for (const float v : projected) max_column = std::max(max_column, v);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const float v = projected[static_cast<std::size_t>(y * w + x)];
      const int shade = std::min(
          9, static_cast<int>(v / max_column * 9.999f));
      std::putchar(shades[shade]);
      std::putchar(shades[shade]);  // square-ish aspect ratio
    }
    std::putchar('\n');
  }
}

}  // namespace cf::examples
