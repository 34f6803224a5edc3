// Shared reporting helpers for the reproduction benches.
//
// Every bench binary prints its reproduction table(s) before handing control
// to google-benchmark, so `for b in build/bench/*; do $b; done` regenerates
// every figure/table of the paper in one pass (EXPERIMENTS.md records the
// outputs).
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "core/sense_simd.h"
#include "util/csv.h"

// Build facts for provenance_json(); bench/CMakeLists.txt defines them.
#ifndef PSNT_BENCH_COMPILER
#define PSNT_BENCH_COMPILER "unknown"
#endif
#ifndef PSNT_BENCH_BUILD_TYPE
#define PSNT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PSNT_BENCH_LTO
#define PSNT_BENCH_LTO "unknown"
#endif

namespace psnt::bench {

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

inline void print_table(const util::CsvTable& table) {
  table.write_pretty(std::cout);
}

// Peak resident set size of this process in megabytes (getrusage ru_maxrss,
// which is KiB on Linux and bytes on macOS). 0 where unsupported. Monotone:
// this is the high-water mark, so "peak after warmup == peak at exit" is the
// fixed-memory signal the serve soak bench gates on.
inline double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

// Current resident set size in megabytes via /proc/self/statm (Linux);
// falls back to peak_rss_mb() elsewhere. Pairs taken before/after a soak
// window measure RSS *growth*, which peak alone cannot.
inline double current_rss_mb() {
#if defined(__linux__)
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  if (statm >> pages_total >> pages_resident) {
    const long page_size = sysconf(_SC_PAGESIZE);
    return static_cast<double>(pages_resident) *
           static_cast<double>(page_size) / (1024.0 * 1024.0);
  }
  return peak_rss_mb();
#else
  return peak_rss_mb();
#endif
}

// JSON string literal for `s` (quotes, backslashes and control characters
// escaped).
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// First line of `command`'s standard output, trailing whitespace trimmed;
// empty when the command cannot run or prints nothing.
inline std::string shell_line(const char* command) {
  std::string line;
#if defined(__unix__) || defined(__APPLE__)
  if (FILE* pipe = popen(command, "r")) {
    char buf[256] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) line = buf;
    pclose(pipe);
  }
#else
  (void)command;
#endif
  while (!line.empty() &&
         std::isspace(static_cast<unsigned char>(line.back())) != 0) {
    line.pop_back();
  }
  return line;
}

// The host and build a bench ran on, as one JSON object: CPU model, online
// CPU count, compiler, CMake build type, LTO, SIMD backend and the git
// commit of the working directory ("unknown" outside a checkout, "-dirty"
// appended when tracked files differ from it). Bench numbers from different
// hosts are not comparable; this block says which host a committed number
// came from.
inline std::string provenance_json() {
  std::string cpu = "unknown";
  {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      const auto first = line.find_first_not_of(' ', colon + 1);
      if (first != std::string::npos) cpu = line.substr(first);
      break;
    }
  }
  std::string git_sha = shell_line("git rev-parse HEAD 2>/dev/null");
  if (git_sha.empty()) {
    git_sha = "unknown";
  } else if (!shell_line("git status --porcelain --untracked-files=no "
                         "2>/dev/null").empty()) {
    git_sha += "-dirty";  // built from uncommitted changes on top of HEAD
  }
  std::ostringstream os;
  os << "{\"cpu\": " << json_string(cpu)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_string(PSNT_BENCH_COMPILER)
     << ", \"build_type\": " << json_string(PSNT_BENCH_BUILD_TYPE)
     << ", \"lto\": " << json_string(PSNT_BENCH_LTO)
     << ", \"simd\": " << json_string(core::simd::backend())
     << ", \"git_sha\": " << json_string(git_sha) << "}";
  return os.str();
}

// Machine-readable perf baseline: a {"section": {"key": value}} JSON
// document. Values are numbers, except where a bench stamps a nested block
// such as a provenance record (set_raw). Several bench binaries contribute
// sections to the same file (BENCH_simcore.json), so the reporter loads
// whatever is already there and merges its own sections over it — last
// writer wins per key, sections from other binaries survive. The parser
// accepts exactly the two-level shape the writer emits (nested values are
// kept verbatim); an unreadable or foreign file is simply overwritten.
class JsonReport {
 public:
  static constexpr const char* kDefaultPath = "BENCH_simcore.json";

  explicit JsonReport(std::string path = kDefaultPath)
      : path_(std::move(path)) {
    load();
  }

  void set(const std::string& section, const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    data_[section][key] = buf;
  }

  // Stores `json` (an already-serialized JSON value) verbatim.
  void set_raw(const std::string& section, const std::string& key,
               std::string json) {
    data_[section][key] = std::move(json);
  }

  bool write() const {
    std::ofstream out(path_);
    if (!out) return false;
    out << "{\n";
    bool first_section = true;
    for (const auto& [section, entries] : data_) {
      if (!first_section) out << ",\n";
      first_section = false;
      out << "  \"" << section << "\": {\n";
      bool first_key = true;
      for (const auto& [key, value] : entries) {
        if (!first_key) out << ",\n";
        first_key = false;
        out << "    \"" << key << "\": " << value;
      }
      out << "\n  }";
    }
    out << "\n}\n";
    return out.good();
  }

  // Field helper: stamp the process's memory footprint into `section` so
  // any bench can add an RSS ceiling to its baseline with one call.
  void set_rss(const std::string& section) {
    set(section, "rss_peak_mb", peak_rss_mb());
  }

 private:
  using Document = std::map<std::string, std::map<std::string, std::string>>;

  void load() {
    std::ifstream in(path_);
    if (!in) return;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    Document parsed;
    if (parse(text, parsed)) data_ = std::move(parsed);
  }

  static void skip_ws(const std::string& s, std::size_t& i) {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])) != 0) {
      ++i;
    }
  }

  // Moves `i` past a JSON string starting at s[i] == '"'.
  static bool skip_string(const std::string& s, std::size_t& i) {
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  }

  static bool parse_string(const std::string& s, std::size_t& i,
                           std::string& out) {
    skip_ws(s, i);
    if (i >= s.size() || s[i] != '"') return false;
    const std::size_t begin = i + 1;
    if (!skip_string(s, i)) return false;
    out = s.substr(begin, i - 1 - begin);
    return true;
  }

  // One value, kept as its source text: a number, a string, or a nested
  // object (braces balanced outside strings).
  static bool parse_value(const std::string& s, std::size_t& i,
                          std::string& out) {
    skip_ws(s, i);
    const std::size_t begin = i;
    if (i >= s.size()) return false;
    if (s[i] == '"') {
      if (!skip_string(s, i)) return false;
    } else if (s[i] == '{') {
      int depth = 0;
      while (i < s.size()) {
        if (s[i] == '"') {
          if (!skip_string(s, i)) return false;
          continue;
        }
        if (s[i] == '{') ++depth;
        if (s[i] == '}' && --depth == 0) break;
        ++i;
      }
      if (i >= s.size()) return false;
      ++i;
    } else {
      char* end = nullptr;
      (void)std::strtod(s.c_str() + i, &end);
      if (end == s.c_str() + i) return false;
      i = static_cast<std::size_t>(end - s.c_str());
    }
    out = s.substr(begin, i - begin);
    return true;
  }

  static bool parse(const std::string& s, Document& out) {
    std::size_t i = 0;
    skip_ws(s, i);
    if (i >= s.size() || s[i++] != '{') return false;
    skip_ws(s, i);
    if (i < s.size() && s[i] == '}') return true;  // empty document
    for (;;) {
      std::string section;
      if (!parse_string(s, i, section)) return false;
      skip_ws(s, i);
      if (i >= s.size() || s[i++] != ':') return false;
      skip_ws(s, i);
      if (i >= s.size() || s[i++] != '{') return false;
      skip_ws(s, i);
      if (i < s.size() && s[i] == '}') {
        ++i;
      } else {
        for (;;) {
          std::string key;
          if (!parse_string(s, i, key)) return false;
          skip_ws(s, i);
          if (i >= s.size() || s[i++] != ':') return false;
          std::string value;
          if (!parse_value(s, i, value)) return false;
          out[section][key] = std::move(value);
          skip_ws(s, i);
          if (i >= s.size()) return false;
          if (s[i] == ',') { ++i; continue; }
          if (s[i] == '}') { ++i; break; }
          return false;
        }
      }
      skip_ws(s, i);
      if (i >= s.size()) return false;
      if (s[i] == ',') { ++i; continue; }
      if (s[i] == '}') return true;
      return false;
    }
  }

  std::string path_;
  Document data_;
};

// Standard main: report first, then microbenchmarks.
#define PSNT_BENCH_MAIN(report_fn)                     \
  int main(int argc, char** argv) {                    \
    report_fn();                                       \
    ::benchmark::Initialize(&argc, argv);              \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();             \
    ::benchmark::Shutdown();                           \
    return 0;                                          \
  }

}  // namespace psnt::bench
