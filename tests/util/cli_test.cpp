#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace sgp::util {
namespace {

CliArgs make(std::vector<const char*> argv) {
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, ProgramNameCaptured) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.program(), "prog");
}

TEST(CliTest, EqualsSyntax) {
  const auto args = make({"prog", "--epsilon=0.5"});
  EXPECT_DOUBLE_EQ(args.get_double("epsilon", 1.0), 0.5);
}

TEST(CliTest, SpaceSyntax) {
  const auto args = make({"prog", "--dim", "128"});
  EXPECT_EQ(args.get_int("dim", 0), 128);
}

TEST(CliTest, BareFlagIsTrue) {
  const auto args = make({"prog", "--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliTest, MissingFlagUsesDefault) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get_int("dim", 42), 42);
  EXPECT_EQ(args.get_string("name", "fallback"), "fallback");
  EXPECT_FALSE(args.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(args.get_double("epsilon", 2.5), 2.5);
}

TEST(CliTest, PositionalCollectedInOrder) {
  const auto args = make({"prog", "input.txt", "--k=3", "output.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "output.txt");
}

TEST(CliTest, HasReportsPresence) {
  const auto args = make({"prog", "--seed=7"});
  EXPECT_TRUE(args.has("seed"));
  EXPECT_FALSE(args.has("epsilon"));
}

TEST(CliTest, MalformedIntThrows) {
  const auto args = make({"prog", "--dim=abc"});
  EXPECT_THROW((void)args.get_int("dim", 0), std::invalid_argument);
}

TEST(CliTest, MalformedDoubleThrows) {
  const auto args = make({"prog", "--epsilon=xyz"});
  EXPECT_THROW((void)args.get_double("epsilon", 0.0), std::invalid_argument);
}

TEST(CliTest, MalformedBoolThrows) {
  const auto args = make({"prog", "--verbose=maybe"});
  EXPECT_THROW((void)args.get_bool("verbose", false), std::invalid_argument);
}

TEST(CliTest, BoolSpellings) {
  for (const char* yes : {"1", "true", "yes", "on"}) {
    const auto args = make({"prog", "--f", yes});
    EXPECT_TRUE(args.get_bool("f", false)) << yes;
  }
  for (const char* no : {"0", "false", "no", "off"}) {
    const auto args = make({"prog", "--f", no});
    EXPECT_FALSE(args.get_bool("f", true)) << no;
  }
}

TEST(CliTest, NumbersMustParseWhole) {
  const auto args = make({"prog", "--dim", "16x", "--seed", "7abc",
                          "--epsilon", "0.5e", "--k", " 3"});
  EXPECT_THROW((void)args.get_int("dim", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_uint64("seed", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("epsilon", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("k", 0), std::invalid_argument);
}

TEST(CliTest, NegativeIntParses) {
  const auto args = make({"prog", "--offset", "-12"});
  EXPECT_EQ(args.get_int("offset", 0), -12);
}

TEST(CliTest, SeedTakesTheFullUnsignedRange) {
  const auto args = make({"prog", "--seed", "18446744073709551615"});
  EXPECT_EQ(args.get_uint64("seed", 0), 18446744073709551615ULL);
  // Above 2^63: a session's per-release seeds land here about half the time.
  const auto high = make({"prog", "--seed=16616101746815609346"});
  EXPECT_EQ(high.get_uint64("seed", 0), 16616101746815609346ULL);
  EXPECT_EQ(make({"prog"}).get_uint64("seed", 7), 7u);
}

TEST(CliTest, SeedRejectsSignsAndOverflow) {
  for (const char* bad : {"-1", "+1", "18446744073709551616", "", "0x10"}) {
    const auto args = make({"prog", "--seed", bad});
    EXPECT_THROW((void)args.get_uint64("seed", 0), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(CliTest, BoundedCountRejectsValuesAboveTheBound) {
  const auto args = make({"prog", "--threads", "1024", "--workers", "257"});
  EXPECT_EQ(args.get_uint64("threads", 0, 1024), 1024u);
  EXPECT_EQ(args.get_uint64("absent", 7, 1024), 7u);
  try {
    (void)args.get_uint64("workers", 0, 256);
    ADD_FAILURE() << "--workers 257 passed a bound of 256";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--workers must be at most 256"),
              std::string::npos)
        << e.what();
  }
}

TEST(CliTest, LaterValueWins) {
  const auto args = make({"prog", "--k=1", "--k=2"});
  EXPECT_EQ(args.get_int("k", 0), 2);
}

// Every getter marks its flag read, whatever the value or the default;
// has() does not. reject_unread() names each flag no getter touched.
TEST(CliTest, UnreadFlagsAreNamedAndRejected) {
  const auto args = make({"prog", "--epsilom", "0.1", "--dim", "8",
                          "--streaming", "--seed=3", "--trace"});
  const auto unread_message = [&args]() -> std::string {
    try {
      args.reject_unread();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(args.get_int("dim", 0), 8);
  EXPECT_DOUBLE_EQ(args.get_double("epsilon", 1.0), 1.0);  // absent flag
  EXPECT_EQ(args.get_uint64("seed", 0), 3u);
  EXPECT_TRUE(args.get_bool("trace", false));
  EXPECT_TRUE(args.has("streaming"));
  const std::string message = unread_message();
  EXPECT_NE(message.find("--epsilom, --streaming"), std::string::npos)
      << message;
  for (const char* read : {"--dim", "--seed", "--trace", "--epsilon,"}) {
    EXPECT_EQ(message.find(read), std::string::npos) << read << ": " << message;
  }
  EXPECT_EQ(args.get_string("epsilom", ""), "0.1");
  EXPECT_TRUE(args.get_bool("streaming", false));
  EXPECT_EQ(unread_message(), "");
}

}  // namespace
}  // namespace sgp::util
