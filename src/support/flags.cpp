#include "support/flags.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace iddq::support {

namespace {

constexpr std::string_view kHelpEntry = "-h, --help";

std::string entry_label(const std::string& name, const std::string& metavar) {
  return metavar.empty() ? name : name + " " + metavar;
}

}  // namespace

FlagTable::FlagTable(std::string tool, std::string usage)
    : tool_(std::move(tool)), usage_(std::move(usage)) {}

FlagTable& FlagTable::add(std::string name, std::string metavar,
                          std::string help, FlagSetter set) {
  if (name == "-h" || name == "--help" || find(name) != nullptr)
    throw Error(tool_ + ": flag " + name + " declared twice");
  flags_.push_back(
      {std::move(name), std::move(metavar), std::move(help), std::move(set)});
  return *this;
}

FlagTable& FlagTable::positionals(FlagSetter sink) {
  positional_ = std::move(sink);
  return *this;
}

FlagTable& FlagTable::epilogue(std::string text) {
  epilogue_ = std::move(text);
  return *this;
}

const FlagTable::Flag* FlagTable::find(std::string_view name) const {
  const auto it = std::find_if(flags_.begin(), flags_.end(),
                               [&](const Flag& f) { return f.name == name; });
  return it == flags_.end() ? nullptr : &*it;
}

std::optional<int> FlagTable::parse(int argc, const char* const* argv,
                                    std::ostream& out, std::ostream& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_help(out);
      return 0;
    }
    if (arg.empty() || arg[0] != '-') {
      if (!positional_) return usage_error("unknown option '" + arg + "'", err);
      if (const auto problem = positional_(arg))
        return usage_error(*problem, err);
      continue;
    }
    const Flag* flag = find(arg);
    if (flag == nullptr)
      return usage_error("unknown option '" + arg + "'", err);
    std::string value;
    if (!flag->metavar.empty()) {
      if (i + 1 >= argc) return usage_error(arg + " needs a value", err);
      value = argv[++i];
    }
    if (const auto problem = flag->set(value))
      return usage_error(arg + " " + *problem, err);
    seen_.push_back(arg);
  }
  return std::nullopt;
}

bool FlagTable::seen(std::string_view name) const {
  return std::find(seen_.begin(), seen_.end(), name) != seen_.end();
}

int FlagTable::usage_error(std::string_view message, std::ostream& err) const {
  err << tool_ << ": " << message << "\n";
  print_help(err);
  return 1;
}

void FlagTable::print_help(std::ostream& os) const {
  std::size_t width = kHelpEntry.size();
  for (const auto& f : flags_)
    width = std::max(width, entry_label(f.name, f.metavar).size());
  const auto line = [&](std::string_view label, std::string_view help) {
    os << "  " << label << std::string(width - label.size() + 2, ' ') << help
       << "\n";
  };
  os << usage_ << "\n";
  for (const auto& f : flags_) line(entry_label(f.name, f.metavar), f.help);
  line(kHelpEntry, "this text");
  if (!epilogue_.empty()) os << epilogue_ << "\n";
}

namespace flags {

FlagSetter size_at_least(std::size_t& out, std::size_t min) {
  return [&out, min](const std::string& value) -> std::optional<std::string> {
    std::size_t parsed = 0;
    if (str::parse_size(value, parsed) && parsed >= min) {
      out = parsed;
      return std::nullopt;
    }
    return min == 0 ? std::string("must be an integer >= 0")
                    : "must be >= " + std::to_string(min);
  };
}

FlagSetter positive_count(std::size_t& out) {
  return [set = size_at_least(out, 1)](
             const std::string& value) -> std::optional<std::string> {
    if (set(value)) return "must be a positive integer";
    return std::nullopt;
  };
}

FlagSetter positive_double(double& out) {
  return [&out](const std::string& value) -> std::optional<std::string> {
    double parsed = 0.0;
    if (!str::parse_double(value, parsed) || !(parsed > 0.0))
      return "must be > 0 (got " + value + ")";
    out = parsed;
    return std::nullopt;
  };
}

FlagSetter optional_text(std::optional<std::string>& out) {
  return [&out](const std::string& value) -> std::optional<std::string> {
    out = value;
    return std::nullopt;
  };
}

FlagSetter switch_on(bool& out) {
  return [&out](const std::string&) -> std::optional<std::string> {
    out = true;
    return std::nullopt;
  };
}

FlagSetter append(std::vector<std::string>& out) {
  return [&out](const std::string& value) -> std::optional<std::string> {
    out.push_back(value);
    return std::nullopt;
  };
}

}  // namespace flags

}  // namespace iddq::support
