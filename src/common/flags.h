#ifndef MPC_COMMON_FLAGS_H_
#define MPC_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace mpc {

/// Minimal "--key=value" command-line parser shared by the tools. Flags
/// are registered against caller-owned storage; Parse collects the
/// remaining positional arguments. Unknown flags, missing '=' and
/// malformed values are errors naming the offending flag — never
/// silently ignored (a typo'd --strategy must not run the default).
class FlagParser {
 public:
  void AddString(const std::string& name, std::string* out);
  /// Switch flag: bare "--name" sets true; "--name=true|false" also
  /// accepted. The only flag kind usable without '='.
  void AddBool(const std::string& name, bool* out);
  void AddUint32(const std::string& name, uint32_t* out);
  void AddUint64(const std::string& name, uint64_t* out);
  void AddInt(const std::string& name, int* out);
  void AddDouble(const std::string& name, double* out);
  /// Comma-separated list, e.g. --fail-sites=0,3,7 (empty value = empty
  /// list).
  void AddUint32List(const std::string& name, std::vector<uint32_t>* out);
  /// Value restricted to an enumerated set, e.g. fail|best-effort.
  void AddChoice(const std::string& name, std::string* out,
                 std::vector<std::string> choices);

  /// Parses argv[first..argc); returns positional (non-flag) arguments,
  /// or InvalidArgument naming the failing flag.
  Result<std::vector<std::string>> Parse(int argc, char** argv, int first);

  /// Names (without "--") of the flags the last Parse saw, so a caller
  /// can tell an explicit value from the default.
  const std::set<std::string>& given() const { return given_; }

 private:
  struct Flag {
    std::string name;
    std::function<Status(const std::string& value)> apply;
    /// True for AddBool flags: "--name" alone is legal (value "true").
    bool valueless = false;
  };
  void Add(std::string name,
           std::function<Status(const std::string&)> apply,
           bool valueless = false);

  std::vector<Flag> flags_;
  std::set<std::string> given_;
};

}  // namespace mpc

#endif  // MPC_COMMON_FLAGS_H_
