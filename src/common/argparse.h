// One flag parser for every hammertime executable (hammertime_cli,
// hammerfuzz, hammercampaign, and the bench mains), so shared flags
// (--threads, --trace-out, --metrics-out, --sample-every, --shard,
// --cache-dir, --resume) spell and behave identically everywhere.
//
// Flags are declared up front (Flag for booleans, Option for valued
// flags); Parse then accepts both `--name value` and `--name=value`
// spellings. `--help` is registered automatically. Unknown flags are an
// error unless AllowUnknown() was called (bench mains allow them so
// harness wrappers can pass extra arguments through).
//
// The numeric accessors are strict: a value is decimal or 0x hex with no
// trailing text (and a sign only where the type is signed), it must fit
// the caller's range, and a double must be finite. A bad value prints
// "<program>: error: --<flag>: ..." and exits 2, so a malformed number
// never reaches the program as 0 or as a wrapped value.
#ifndef HAMMERTIME_SRC_COMMON_ARGPARSE_H_
#define HAMMERTIME_SRC_COMMON_ARGPARSE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ht {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  // Declares a boolean flag (present = true). Returns *this for chaining.
  ArgParser& Flag(const std::string& name, std::string help);
  // Declares a valued flag. `value_name` is only used in the usage text.
  ArgParser& Option(const std::string& name, std::string value_name, std::string help,
                    std::string default_value = "");
  // Collect unknown `--flags` instead of failing (bench mains).
  ArgParser& AllowUnknown();
  // Accept bare (non-flag) arguments; they land in positionals().
  ArgParser& AllowPositionals(std::string name_help);

  // Returns false on a malformed command line (see error()). A lone
  // `--help` parses successfully with help_requested() set.
  bool Parse(int argc, char** argv);

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }
  std::string Usage() const;

  // --- Accessors (valid after Parse) -----------------------------------------
  bool Has(std::string_view name) const;   // Set on the command line.
  bool GetBool(std::string_view name) const { return Has(name); }
  // Value if set, declared default otherwise.
  const std::string& Get(std::string_view name) const;
  // Numbers; an empty value reads as 0. GetNumber/GetNumbers narrow to T
  // and range-check against T's limits.
  uint64_t GetUint(std::string_view name) const { return GetNumber<uint64_t>(name); }
  int64_t GetInt(std::string_view name) const { return GetNumber<int64_t>(name); }
  double GetDouble(std::string_view name, double min, double max) const;
  template <typename T>
  T GetNumber(std::string_view name) const {
    const std::string& text = Get(name);
    return text.empty() ? T{0} : ParseNumber<T>(name, text);
  }
  // Comma-separated list forms ("a,b,c"); empty value = empty list.
  std::vector<std::string> GetStrings(std::string_view name) const;
  std::vector<uint64_t> GetUints(std::string_view name) const {
    return GetNumbers<uint64_t>(name);
  }
  std::vector<int64_t> GetInts(std::string_view name) const { return GetNumbers<int64_t>(name); }
  template <typename T>
  std::vector<T> GetNumbers(std::string_view name) const {
    std::vector<T> out;
    for (const std::string& item : GetStrings(name)) {
      out.push_back(ParseNumber<T>(name, item));
    }
    return out;
  }

  const std::vector<std::string>& positionals() const { return positionals_; }
  const std::vector<std::string>& unknown() const { return unknown_; }

 private:
  struct Spec {
    std::string name;
    std::string value_name;  // Empty for boolean flags.
    std::string help;
    std::string default_value;
    bool takes_value = false;
    // Parse results:
    bool set = false;
    std::string value;
  };

  Spec* FindSpec(std::string_view name);
  const Spec* FindSpec(std::string_view name) const;
  bool Fail(std::string message);
  [[noreturn]] void BadValue(std::string_view name, const std::string& text,
                             const std::string& why) const;
  uint64_t ParseUint(std::string_view name, const std::string& text, uint64_t max) const;
  int64_t ParseInt(std::string_view name, const std::string& text, int64_t min,
                   int64_t max) const;
  template <typename T>
  T ParseNumber(std::string_view name, const std::string& text) const {
    if constexpr (std::is_signed_v<T>) {
      return static_cast<T>(
          ParseInt(name, text, std::numeric_limits<T>::min(), std::numeric_limits<T>::max()));
    } else {
      return static_cast<T>(ParseUint(name, text, std::numeric_limits<T>::max()));
    }
  }

  std::string program_;
  std::string description_;
  std::string positional_help_;
  std::vector<Spec> specs_;
  std::vector<std::string> positionals_;
  std::vector<std::string> unknown_;
  std::string error_;
  bool allow_unknown_ = false;
  bool allow_positionals_ = false;
  bool help_requested_ = false;
};

// Parses a `k/n` shard designator (1 <= k <= n, n >= 1). Returns false on
// malformed input without touching the outputs.
bool ParseShard(std::string_view text, uint32_t* index, uint32_t* count);

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_ARGPARSE_H_
