// Converts `key=value` bench output (stdin) into a flat JSON object.
// Lines that are empty, start with '#', or contain no '=' are ignored;
// values that parse fully as numbers are emitted as JSON numbers,
// everything else as strings. Used by CI to persist the perf trajectory:
//
//   ./bench/bench_engine | ./tools/bench_to_json BENCH_engine.json

#include <cctype>
#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace {

bool IsNumber(const std::string& value) {
  if (value.empty()) return false;
  char* end = nullptr;
  double parsed = std::strtod(value.c_str(), &end);
  // nan/inf parse but are not valid JSON numbers; quote them instead.
  return end != nullptr && *end == '\0' && std::isfinite(parsed);
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_engine.json";

  std::vector<std::pair<std::string, std::string>> entries;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) continue;  // need a key
    entries.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  if (entries.empty()) {
    std::fprintf(stderr, "bench_to_json: no key=value lines on stdin\n");
    return 1;
  }

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_to_json: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, value] = entries[i];
    std::fprintf(out, "  \"%s\": ", JsonEscape(key).c_str());
    if (IsNumber(value)) {
      std::fprintf(out, "%s", value.c_str());
    } else {
      std::fprintf(out, "\"%s\"", JsonEscape(value).c_str());
    }
    std::fprintf(out, "%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu keys)\n", out_path, entries.size());
  return 0;
}
