// Shared plumbing for the gate benches (torture, fig15, attack & defense,
// transport, million-idle, SMP scaling): the command line, the double-run
// determinism check, the pass/fail tally, and the report formatters.
//
// A gate bench checks virtual-time claims and exits 0 only when every check
// passes. Its command line is at most --quick (the reduced CI matrix) and,
// for a bench that writes a JSON report, --json=FILE. Anything else is a
// usage error with exit status 2, so a typo never silently runs the full
// matrix.

#ifndef BENCH_GATE_H_
#define BENCH_GATE_H_

#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/load/benchmark_run.h"

namespace scio::gate {

// The shared flags a bench accepts.
enum class Accept { kNothing, kQuick, kQuickAndJson };

struct Flags {
  bool quick = false;  // --quick
  std::string json;    // --json=FILE, else `json_default`; empty = no report
};

// Parses argv, exiting with a usage message and status 2 on any argument
// the bench does not accept. `extra`, when given, handles bench-specific
// `--name=value` flags (listed in `extra_usage`) and returns false for an
// argument it does not recognise or whose value does not parse.
inline Flags ParseFlags(int argc, char** argv, Accept accept = Accept::kQuick,
                        std::string json_default = "",
                        const std::function<bool(const std::string&)>& extra = nullptr,
                        const char* extra_usage = "") {
  const bool quick_ok = accept != Accept::kNothing;
  const bool json_ok = accept == Accept::kQuickAndJson;
  Flags flags;
  flags.json = std::move(json_default);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (quick_ok && arg == "--quick") {
      flags.quick = true;
    } else if (json_ok && arg.rfind("--json=", 0) == 0 && arg.size() > 7) {
      flags.json = arg.substr(7);
    } else if (!extra || !extra(arg)) {
      std::cerr << "unknown or malformed flag: " << arg << "\nusage: " << argv[0]
                << (quick_ok ? " [--quick]" : "") << (json_ok ? " [--json=FILE]" : "")
                << extra_usage << "\n";
      std::exit(2);
    }
  }
  return flags;
}

// Runs `run` twice and reports whether the two results' Signature()s match
// byte for byte; `first`, when given, receives the first result.
template <typename Run>
bool RunsIdentical(const Run& run, std::invoke_result_t<const Run&>* first = nullptr) {
  auto a = run();
  const bool identical = Signature(a) == Signature(run());
  if (first != nullptr) {
    *first = std::move(a);
  }
  return identical;
}

// Counts failed checks and turns them into the summary line and exit status.
class Tally {
 public:
  // Records one check; returns `ok` so the caller can branch on it.
  bool Check(bool ok) {
    failures_ += ok ? 0 : 1;
    return ok;
  }
  void Fail() { ++failures_; }
  int failures() const { return failures_; }

  // Prints "ALL PASS" or "FAILURES: N" and returns the exit status (0 or 1).
  int Finish() const {
    std::cout << "\n"
              << (failures_ == 0 ? "ALL PASS" : "FAILURES: " + std::to_string(failures_))
              << std::endl;
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

// `value` with exactly `precision` digits after the point.
inline std::string Fixed(double value, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << std::fixed << value;
  return out.str();
}

// --- JSON reports --------------------------------------------------------------

inline std::string Quote(std::string_view text) {
  return '"' + std::string(text) + '"';
}

// A number as JSON text: integers exactly, doubles with 17 significant digits.
template <typename T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
std::string Num(T value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

// One `{"key": value, ...}` row; each value is already JSON text.
inline std::string JsonRow(
    std::initializer_list<std::pair<std::string_view, std::string>> fields) {
  std::string row = "{";
  for (const auto& [key, value] : fields) {
    if (row.size() > 1) {
      row += ", ";
    }
    row += Quote(key) + ": " + value;
  }
  return row + "}";
}

// A report: the `"results"` rows between leading and trailing top-level
// fields (key, JSON text).
struct JsonReport {
  std::vector<std::pair<std::string, std::string>> lead;
  std::vector<std::string> results;
  std::vector<std::pair<std::string, std::string>> trail;

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\n";
    for (const auto& [key, value] : lead) {
      out << "  " << Quote(key) << ": " << value << ",\n";
    }
    out << "  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      out << (i == 0 ? "" : ",\n") << "    " << results[i];
    }
    out << "\n  ]";
    for (const auto& [key, value] : trail) {
      out << ",\n  " << Quote(key) << ": " << value;
    }
    out << "\n}\n";
  }
};

}  // namespace scio::gate

#endif  // BENCH_GATE_H_
