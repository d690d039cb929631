#include "support/flags.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace iddq::support {
namespace {

using namespace flags;

struct Parsed {
  std::optional<int> exit_code;
  std::string out;
  std::string err;
};

Parsed run(FlagTable& table, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::ostringstream out;
  std::ostringstream err;
  Parsed p;
  p.exit_code = table.parse(static_cast<int>(argv.size()), argv.data(), out,
                            err);
  p.out = out.str();
  p.err = err.str();
  return p;
}

// The first line of a usage error (the help text follows it).
std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

TEST(Flags, MissingValueNamesTheFlag) {
  std::size_t n = 0;
  FlagTable table("tool", "usage: tool");
  table.add("--n", "N", "a count", size_at_least(n, 0));
  const auto p = run(table, {"--n"});
  EXPECT_EQ(p.exit_code, 1);
  EXPECT_EQ(first_line(p.err), "tool: --n needs a value");
  EXPECT_NE(p.err.find("usage: tool"), std::string::npos);
  EXPECT_TRUE(p.out.empty());
}

TEST(Flags, UnknownOptionAndStrayPositional) {
  FlagTable table("tool", "usage: tool");
  auto p = run(table, {"--bogus"});
  EXPECT_EQ(p.exit_code, 1);
  EXPECT_EQ(first_line(p.err), "tool: unknown option '--bogus'");
  // Without a positional sink a bare argument is rejected too.
  p = run(table, {"c17"});
  EXPECT_EQ(p.exit_code, 1);
  EXPECT_EQ(first_line(p.err), "tool: unknown option 'c17'");
}

TEST(Flags, ValidatorMessages) {
  std::size_t any = 0;
  std::size_t at_least_3 = 0;
  std::size_t count = 0;
  double positive = 1.0;
  FlagTable table("tool", "usage: tool");
  table.add("--any", "N", "", size_at_least(any, 0))
      .add("--three", "N", "", size_at_least(at_least_3, 3))
      .add("--count", "N", "", positive_count(count))
      .add("--ratio", "R", "", positive_double(positive))
      .add("--mode", "M", "", [](const std::string& v)
               -> std::optional<std::string> {
             if (v == "ok") return std::nullopt;
             return "must be 'ok'";
           });
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases{
      {{"--any", "-1"}, "tool: --any must be an integer >= 0"},
      {{"--any", "3x"}, "tool: --any must be an integer >= 0"},
      {{"--three", "2"}, "tool: --three must be >= 3"},
      {{"--count", "0"}, "tool: --count must be a positive integer"},
      {{"--count", "abc"}, "tool: --count must be a positive integer"},
      {{"--ratio", "0"}, "tool: --ratio must be > 0 (got 0)"},
      {{"--ratio", "-5"}, "tool: --ratio must be > 0 (got -5)"},
      {{"--ratio", "abc"}, "tool: --ratio must be > 0 (got abc)"},
      {{"--mode", "x"}, "tool: --mode must be 'ok'"},
  };
  for (const auto& [args, message] : cases) {
    std::vector<const char*> argv{"tool"};
    argv.insert(argv.end(), args.begin(), args.end());
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(table.parse(static_cast<int>(argv.size()), argv.data(), out,
                          err),
              1)
        << message;
    EXPECT_EQ(first_line(err.str()), message);
  }
  // A rejected value leaves the field as it was.
  EXPECT_EQ(at_least_3, 0u);
  EXPECT_EQ(positive, 1.0);

  const auto p = run(table, {"--any", "0", "--three", "3", "--count", "2",
                             "--ratio", "0.5", "--mode", "ok"});
  EXPECT_FALSE(p.exit_code.has_value()) << p.err;
  EXPECT_EQ(any, 0u);
  EXPECT_EQ(at_least_3, 3u);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(positive, 0.5);
}

TEST(Flags, LastWinsAndRepeatable) {
  std::size_t n = 0;
  std::optional<std::string> name;
  std::vector<std::string> items;
  std::vector<std::string> positionals;
  FlagTable table("tool", "usage: tool");
  table.add("--n", "N", "", size_at_least(n, 0))
      .add("--name", "S", "", optional_text(name))
      .add("--item", "S", "", append(items))
      .positionals(append(positionals));
  const auto p = run(table, {"--n", "1", "a", "--item", "x", "--n", "2",
                             "--name", "-", "b", "--item", "y"});
  EXPECT_FALSE(p.exit_code.has_value()) << p.err;
  EXPECT_EQ(n, 2u);
  // A value is taken as given, even when it starts with '-'.
  EXPECT_EQ(name, "-");
  EXPECT_EQ(items, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(positionals, (std::vector<std::string>{"a", "b"}));
}

TEST(Flags, SeenTracksGivenFlagsOnly) {
  bool quiet = false;
  std::optional<std::string> model;
  std::vector<std::string> positionals;
  FlagTable table("tool", "usage: tool");
  table.add("--quiet", "", "", switch_on(quiet))
      .add("--model", "M", "", optional_text(model))
      .positionals(append(positionals));
  const auto p = run(table, {"--quiet", "c17"});
  EXPECT_FALSE(p.exit_code.has_value()) << p.err;
  EXPECT_TRUE(quiet);
  // A switch takes no value: the next argument stays a positional.
  EXPECT_EQ(positionals, std::vector<std::string>{"c17"});
  EXPECT_TRUE(table.seen("--quiet"));
  EXPECT_FALSE(table.seen("--model"));
  EXPECT_FALSE(model.has_value());
}

TEST(Flags, HelpListsEveryEntryExactlyOnce) {
  bool on = false;
  std::size_t n = 0;
  std::vector<std::string> list;
  std::optional<std::string> file;
  FlagTable table("tool", "usage: tool [options]");
  table.add("--on", "", "turn it on", switch_on(on))
      .add("--n", "N", "a count", size_at_least(n, 0))
      .add("--list", "ITEM", "repeatable", append(list))
      .add("-o", "FILE", "output file", optional_text(file))
      .epilogue("see the docs");
  for (const char* flag : {"--help", "-h"}) {
    std::vector<const char*> argv{"tool", "--n", "3", flag, "--bogus"};
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(table.parse(static_cast<int>(argv.size()), argv.data(), out,
                          err),
              0);
    EXPECT_TRUE(err.str().empty());
    const std::string help = out.str();
    EXPECT_EQ(first_line(help), "usage: tool [options]");
    for (const std::string entry :
         {"  --on ", "  --n N ", "  --list ITEM ", "  -o FILE ",
          "  -h, --help "}) {
      const auto at = help.find(entry);
      ASSERT_NE(at, std::string::npos) << entry;
      EXPECT_EQ(help.find(entry, at + 1), std::string::npos) << entry;
    }
    EXPECT_NE(help.find("see the docs\n"), std::string::npos);
    // 1 usage line + 4 flags + help entry + epilogue.
    EXPECT_EQ(std::count(help.begin(), help.end(), '\n'), 7);
  }
}

TEST(Flags, DuplicateDeclarationThrows) {
  bool a = false;
  FlagTable table("tool", "usage: tool");
  table.add("--a", "", "", switch_on(a));
  EXPECT_THROW(table.add("--a", "", "", switch_on(a)), Error);
  EXPECT_THROW(table.add("--help", "", "", switch_on(a)), Error);
}

TEST(Flags, UsageErrorPrintsToolPrefixAndHelp) {
  FlagTable table("tool", "usage: tool");
  std::ostringstream err;
  EXPECT_EQ(table.usage_error("at least one circuit expected", err), 1);
  EXPECT_EQ(first_line(err.str()), "tool: at least one circuit expected");
  EXPECT_NE(err.str().find("usage: tool\n"), std::string::npos);
}

}  // namespace
}  // namespace iddq::support
