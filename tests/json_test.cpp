// util::json, the one JSON codec: the strict number grammar, exact
// 64-bit integers, \u escapes, the nesting cap, the typed accessors, the
// two writers, and every JSON document the repo ships parsing cleanly.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace rbcast::util {
namespace {

Json parse(const std::string& text) { return parse_json(text, "test"); }

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"1-2", "+5", "01", "-01", "1.", "1.2.3", "-", "1e", "1e+", ".5",
        "\"bad\\q\"", "\"unterminated", "\"bad\\u12g4\"", "[1] x", "{} {}",
        "", "nul", "[1,]", "{\"a\":}", "{\"a\" 1}"}) {
    EXPECT_THROW((void)parse(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, ErrorNamesContextAndOffset) {
  try {
    (void)parse_json("[1,]", "chaos spec");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("chaos spec JSON, offset 3: ", 0),
              0u)
        << e.what();
  }
}

TEST(JsonParse, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(parse("\"\\u00e9\"").str, "\xc3\xa9");
  EXPECT_EQ(parse("\"a\\u0041\\u20AC\"").str, "aA\xe2\x82\xac");
  EXPECT_EQ(parse("\"\\u0001\"").str, std::string(1, '\x01'));
}

TEST(JsonParse, KeepsIntegersExact) {
  const Json big = parse("9007199254740993");
  ASSERT_EQ(big.type, Json::Type::kNumber);
  ASSERT_TRUE(std::holds_alternative<std::uint64_t>(big.number));
  EXPECT_EQ(std::get<std::uint64_t>(big.number), 9007199254740993ULL);

  const Json min = parse("-9223372036854775808");
  ASSERT_TRUE(std::holds_alternative<std::int64_t>(min.number));
  EXPECT_EQ(std::get<std::int64_t>(min.number),
            std::numeric_limits<std::int64_t>::min());

  const Json max = parse("18446744073709551615");
  ASSERT_TRUE(std::holds_alternative<std::uint64_t>(max.number));
  EXPECT_EQ(std::get<std::uint64_t>(max.number),
            std::numeric_limits<std::uint64_t>::max());

  EXPECT_THROW((void)parse("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW((void)parse("-9223372036854775809"), std::invalid_argument);
}

TEST(JsonParse, FractionsAndExponentsAreDoubles) {
  for (const char* text : {"1.5", "-0.25", "1e2", "2E-3", "0.0"}) {
    const Json v = parse(text);
    EXPECT_TRUE(std::holds_alternative<double>(v.number)) << text;
  }
  EXPECT_DOUBLE_EQ(std::get<double>(parse("1e2").number), 100.0);
  EXPECT_TRUE(std::holds_alternative<std::int64_t>(parse("-3").number));
  EXPECT_TRUE(std::holds_alternative<std::uint64_t>(parse("0").number));
}

TEST(JsonParse, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string deep(100000, '[');
  try {
    (void)parse(deep);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("deep"), std::string::npos)
        << e.what();
  }
  // 64 levels are fine.
  EXPECT_NO_THROW(
      (void)parse(std::string(64, '[') + std::string(64, ']')));
}

TEST(JsonParse, PreservesMemberOrder) {
  const Json v = parse(R"({"b":1,"a":{"z":[true,null]},"c":"x"})");
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "b");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].first, "c");
  const Json* z = v.members[1].second.find("z");
  ASSERT_NE(z, nullptr);
  ASSERT_EQ(z->items.size(), 2u);
  EXPECT_TRUE(z->items[0].boolean);
  EXPECT_EQ(z->items[1].type, Json::Type::kNull);
}

TEST(JsonAccess, IntOrRejectsValuesOutsideInt) {
  const Json v = parse(
      R"({"huge":1e300,"big":2147483648,"neg":-5,"frac":7.9,"s":"1"})");
  EXPECT_THROW((void)json_int_or(v, "huge", 0, "t"), std::invalid_argument);
  EXPECT_THROW((void)json_int_or(v, "big", 0, "t"), std::invalid_argument);
  EXPECT_THROW((void)json_int_or(v, "s", 0, "t"), std::invalid_argument);
  EXPECT_EQ(json_int_or(v, "neg", 0, "t"), -5);
  EXPECT_EQ(json_int_or(v, "frac", 0, "t"), 7);
  EXPECT_EQ(json_int_or(v, "absent", 42, "t"), 42);
}

TEST(JsonAccess, SixtyFourBitAccessorsAreExactAndRangeChecked) {
  const Json v = parse(
      R"({"u":18446744073709551615,"i":-9223372036854775808,"neg":-1})");
  EXPECT_EQ(json_u64_or(v, "u", 0, "t"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(json_i64_or(v, "i", 0, "t"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)json_u64_or(v, "neg", 0, "t"), std::invalid_argument);
  EXPECT_THROW((void)json_i64_or(v, "u", 0, "t"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(json_num_or(v, "neg", 0, "t"), -1.0);
}

TEST(JsonWrite, StringRoundTripsEveryAsciiByte) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) all.push_back(static_cast<char>(c));
  std::ostringstream os;
  write_json_string(os, all);
  const Json back = parse(os.str());
  ASSERT_EQ(back.type, Json::Type::kString);
  EXPECT_EQ(back.str, all);
}

TEST(JsonWrite, StringEscapesArePinned) {
  std::ostringstream os;
  write_json_string(os, "a\"b\\c\nd\te\rf\x01\x1f/\xc3\xa9");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001\\u001f/\xc3\xa9\"");
}

TEST(JsonWrite, NumbersUseTwelveDigitsAndNullForNonFinite) {
  auto render = [](double v) {
    std::ostringstream os;
    os.precision(3);  // the writer ignores the stream's own precision
    write_json_number(os, v);
    return os.str();
  };
  EXPECT_EQ(render(0.1 + 0.2), "0.3");
  EXPECT_EQ(render(9.102), "9.102");
  EXPECT_EQ(render(2.0), "2");
  EXPECT_EQ(render(123456789.125), "123456789.125");
  EXPECT_EQ(render(1e300), "1e+300");
  EXPECT_EQ(render(-2.5e-7), "-2.5e-07");
  EXPECT_EQ(render(std::nan("")), "null");
  EXPECT_EQ(render(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render(-std::numeric_limits<double>::infinity()), "null");
}

// The stricter grammar must still accept every JSON document the repo
// ships: test data, committed bench baselines, the benchmark declaration
// and the analysis baseline.
TEST(JsonCommittedDocuments, AllParse) {
  namespace fs = std::filesystem;
  const fs::path root(RBCAST_SOURCE_DIR);
  std::vector<fs::path> files;
  for (const fs::path& dir : {root, root / "tests" / "data"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      const bool top_level_doc = name.rfind("BENCH_", 0) == 0 ||
                                 name == "BENCHMARK.json" ||
                                 name == "ANALYSIS_baseline.json";
      if (entry.path().extension() == ".json" &&
          (dir != root || top_level_doc)) {
        files.push_back(entry.path());
      }
    }
  }
  ASSERT_GE(files.size(), 10u) << "expected the committed JSON documents";
  for (const fs::path& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in) << file;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NO_THROW((void)parse_json(text.str(), file.string())) << file;
  }
}

}  // namespace
}  // namespace rbcast::util
