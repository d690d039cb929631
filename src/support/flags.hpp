// Declarative command-line flags for the iddqsyn tools.
//
// A tool declares each flag once — name, metavar, help line and a setter
// bound to the field it sets — and the table does the rest: the argv
// walk, "needs a value" and unknown-option errors prefixed by the tool
// name, -h/--help generated from the declarations (tools/check_docs.sh
// checks the docs against that output), and which flags were given. A
// flag repeated on the command line is applied each time, so a plain
// field keeps the last value and a list setter collects them all.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iddq::support {

/// Applies one flag value (empty for a switch). Returns the reason to
/// reject it ("must be >= 1"), which the table prints after the flag's
/// name, or nullopt to accept it.
using FlagSetter =
    std::function<std::optional<std::string>(const std::string& value)>;

class FlagTable {
 public:
  /// `usage` is the first line --help prints ("usage: tool [options]").
  FlagTable(std::string tool, std::string usage);

  /// Declares a flag; an empty `metavar` declares a switch, which takes
  /// no value. Throws iddq::Error when `name` is already declared.
  FlagTable& add(std::string name, std::string metavar, std::string help,
                 FlagSetter set);

  /// Routes every argument that does not start with '-' to `sink`.
  /// Without a sink such arguments are rejected as unknown options.
  FlagTable& positionals(FlagSetter sink);

  /// Text --help prints after the flag list.
  FlagTable& epilogue(std::string text);

  /// Applies argv[1..argc). Returns nullopt when the tool should run, or
  /// the exit code it should return instead: 0 after -h/--help (help on
  /// `out`), 1 after a usage error (message and help on `err`).
  [[nodiscard]] std::optional<int> parse(int argc, const char* const* argv,
                                         std::ostream& out = std::cout,
                                         std::ostream& err = std::cerr);

  /// True when `name` was given on the parsed command line.
  [[nodiscard]] bool seen(std::string_view name) const;

  /// Reports a usage error found after parse(): prints "tool: message"
  /// and the help text on `err`, and returns 1 (the bad-usage exit code).
  int usage_error(std::string_view message,
                  std::ostream& err = std::cerr) const;

  void print_help(std::ostream& os) const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;
    std::string help;
    FlagSetter set;
  };
  [[nodiscard]] const Flag* find(std::string_view name) const;

  std::string tool_;
  std::string usage_;
  std::string epilogue_;
  std::vector<Flag> flags_;
  FlagSetter positional_;
  std::vector<std::string> seen_;
};

/// Typed setters. Each binds the field it writes; the field must outlive
/// the table's parse().
namespace flags {

/// An integer >= `min` ("must be >= MIN", or "must be an integer >= 0").
[[nodiscard]] FlagSetter size_at_least(std::size_t& out, std::size_t min);
/// A count of threads or workers: an integer >= 1 ("must be a positive
/// integer").
[[nodiscard]] FlagSetter positive_count(std::size_t& out);
/// A number > 0 ("must be > 0 (got VALUE)").
[[nodiscard]] FlagSetter positive_double(double& out);
[[nodiscard]] FlagSetter optional_text(std::optional<std::string>& out);
/// Sets `out` to true; declare the flag with an empty metavar.
[[nodiscard]] FlagSetter switch_on(bool& out);
/// Appends every occurrence's value to `out` (a repeatable flag).
[[nodiscard]] FlagSetter append(std::vector<std::string>& out);

}  // namespace flags

}  // namespace iddq::support
