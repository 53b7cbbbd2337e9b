#include "common/flags.h"

#include <algorithm>
#include <stdexcept>

namespace mpc {

namespace {

/// Wraps the throwing std::sto* parsers into a Status, rejecting
/// trailing garbage ("--k=8x" is an error, not 8).
template <typename T, typename ParseFn>
Status ParseNumber(const std::string& name, const std::string& value,
                   ParseFn parse, T* out) {
  try {
    size_t used = 0;
    T parsed = parse(value, &used);
    if (used != value.size()) {
      return Status::InvalidArgument("--" + name +
                                     " needs a numeric value, got '" +
                                     value + "'");
    }
    *out = parsed;
    return Status::Ok();
  } catch (const std::exception&) {
    return Status::InvalidArgument("--" + name +
                                   " needs a numeric value, got '" + value +
                                   "'");
  }
}

}  // namespace

void FlagParser::Add(std::string name,
                     std::function<Status(const std::string&)> apply,
                     bool valueless) {
  flags_.push_back(Flag{std::move(name), std::move(apply), valueless});
}

void FlagParser::AddString(const std::string& name, std::string* out) {
  Add(name, [out](const std::string& value) {
    *out = value;
    return Status::Ok();
  });
}

void FlagParser::AddBool(const std::string& name, bool* out) {
  Add(
      name,
      [name, out](const std::string& value) {
        if (value == "true" || value == "1") {
          *out = true;
        } else if (value == "false" || value == "0") {
          *out = false;
        } else {
          return Status::InvalidArgument("--" + name +
                                         " needs true or false, got '" +
                                         value + "'");
        }
        return Status::Ok();
      },
      /*valueless=*/true);
}

void FlagParser::AddUint32(const std::string& name, uint32_t* out) {
  Add(name, [name, out](const std::string& value) {
    return ParseNumber<uint32_t>(
        name, value,
        [](const std::string& v, size_t* used) {
          return static_cast<uint32_t>(std::stoul(v, used));
        },
        out);
  });
}

void FlagParser::AddUint64(const std::string& name, uint64_t* out) {
  Add(name, [name, out](const std::string& value) {
    return ParseNumber<uint64_t>(
        name, value,
        [](const std::string& v, size_t* used) {
          return static_cast<uint64_t>(std::stoull(v, used));
        },
        out);
  });
}

void FlagParser::AddInt(const std::string& name, int* out) {
  Add(name, [name, out](const std::string& value) {
    return ParseNumber<int>(
        name, value,
        [](const std::string& v, size_t* used) {
          return std::stoi(v, used);
        },
        out);
  });
}

void FlagParser::AddDouble(const std::string& name, double* out) {
  Add(name, [name, out](const std::string& value) {
    return ParseNumber<double>(
        name, value,
        [](const std::string& v, size_t* used) {
          return std::stod(v, used);
        },
        out);
  });
}

void FlagParser::AddUint32List(const std::string& name,
                               std::vector<uint32_t>* out) {
  Add(name, [name, out](const std::string& value) {
    std::vector<uint32_t> parsed;
    size_t begin = 0;
    while (begin <= value.size()) {
      size_t comma = value.find(',', begin);
      if (comma == std::string::npos) comma = value.size();
      const std::string item = value.substr(begin, comma - begin);
      if (!item.empty()) {
        uint32_t element = 0;
        Status st = ParseNumber<uint32_t>(
            name, item,
            [](const std::string& v, size_t* used) {
              return static_cast<uint32_t>(std::stoul(v, used));
            },
            &element);
        if (!st.ok()) return st;
        parsed.push_back(element);
      }
      begin = comma + 1;
    }
    *out = std::move(parsed);
    return Status::Ok();
  });
}

void FlagParser::AddChoice(const std::string& name, std::string* out,
                           std::vector<std::string> choices) {
  Add(name, [name, out,
             choices = std::move(choices)](const std::string& value) {
    if (std::find(choices.begin(), choices.end(), value) == choices.end()) {
      std::string allowed;
      for (const std::string& c : choices) {
        if (!allowed.empty()) allowed += "|";
        allowed += c;
      }
      return Status::InvalidArgument("--" + name + " must be one of " +
                                     allowed + ", got '" + value + "'");
    }
    *out = value;
    return Status::Ok();
  });
}

Result<std::vector<std::string>> FlagParser::Parse(int argc, char** argv,
                                                   int first) {
  given_.clear();
  std::vector<std::string> positional;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(std::move(arg));
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    auto it = std::find_if(flags_.begin(), flags_.end(),
                           [&](const Flag& f) { return f.name == key; });
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
    if (eq == std::string::npos && !it->valueless) {
      return Status::InvalidArgument("flag needs a value: " + arg);
    }
    const std::string value =
        eq == std::string::npos ? "true" : arg.substr(eq + 1);
    Status st = it->apply(value);
    if (!st.ok()) return st;
    given_.insert(key);
  }
  return positional;
}

}  // namespace mpc
