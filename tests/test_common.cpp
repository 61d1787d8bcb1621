// Unit tests for the common utilities, including the JSON module and a
// seeded mutation fuzzer over the two file formats it reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stringf.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "obs/trace_import.hpp"
#include "tuner/tuning_table.hpp"

namespace tiledqr {
namespace {

constexpr auto npos = std::string::npos;

TEST(Error, CheckThrowsWithMessage) {
  try {
    TILEDQR_CHECK(1 == 2, "custom context");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(TILEDQR_CHECK(2 + 2 == 4, "fine"));
}

TEST(Stringf, FormatsLikePrintf) {
  EXPECT_EQ(stringf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(stringf("%s", ""), "");
}

TEST(Stringf, LongOutput) {
  std::string big(5000, 'a');
  EXPECT_EQ(stringf("%s", big.c_str()).size(), big.size());
}

TEST(Env, LongParsesAndFallsBack) {
  ::setenv("TILEDQR_TEST_LONG", "42", 1);
  EXPECT_EQ(env_long("TILEDQR_TEST_LONG", 7), 42);
  ::setenv("TILEDQR_TEST_LONG", "oops", 1);
  EXPECT_EQ(env_long("TILEDQR_TEST_LONG", 7), 7);
  ::unsetenv("TILEDQR_TEST_LONG");
  EXPECT_EQ(env_long("TILEDQR_TEST_LONG", 9), 9);
}

TEST(Env, FlagVariants) {
  for (const char* v : {"1", "true", "YES", "On"}) {
    ::setenv("TILEDQR_TEST_FLAG", v, 1);
    EXPECT_TRUE(env_flag("TILEDQR_TEST_FLAG")) << v;
  }
  ::setenv("TILEDQR_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("TILEDQR_TEST_FLAG"));
  ::unsetenv("TILEDQR_TEST_FLAG");
  EXPECT_TRUE(env_flag("TILEDQR_TEST_FLAG", true));
}

TEST(Env, DefaultThreadCountPositive) { EXPECT_GE(default_thread_count(), 1); }

TEST(Timer, MeasuresNonNegative) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 10000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t("title");
  t.set_header({"a", "bbbb"});
  t.add_row({"xx", "y"});
  t.add_row({"1", "22222"});
  std::string s = t.str();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("bbbb"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
}

TEST(TextTable, CsvRoundTrip) {
  TextTable t;
  t.set_header({"p", "q"});
  t.add_row({"40", "10"});
  EXPECT_EQ(t.csv(), "p,q\n40,10\n");
}

TEST(Json, ParsesRfc8259DocumentsIntoTypedValues) {
  const json::Value v = json::parse(
      R"( {"n": -12.5e1, "t": true, "nil": null, "big": 4294967296, "half": 0.5, "a": [1, [{}]],
           "s": "q\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00", "dup": 1, "dup": 2} )",
      "doc");
  EXPECT_EQ(v.at("n").as_number("n"), -125.0);
  EXPECT_TRUE(v.at("t").as_bool("t"));
  EXPECT_EQ(v.at("nil").type(), json::Type::Null);
  EXPECT_EQ(v.at("big").as_int<std::int64_t>("big"), std::int64_t(1) << 32);
  EXPECT_EQ(v.at("a").as_array("a")[1].as_array("a[1]")[0].type(), json::Type::Object);
  EXPECT_EQ(v.at("s").as_string("s"), "q\"\\/\b\f\n\r\t\xc3\xa9\xf0\x9f\x98\x80");
  EXPECT_EQ(v.at("dup").as_number("dup"), 2.0);  // the last duplicate wins
  EXPECT_EQ(v.find("missing"), nullptr);
  // Reads that do not fit throw Error naming the field.
  auto error = [](auto read) -> std::string {
    try {
      read();
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_NE(error([&] { (void)v.at("big").as_int<int>("big"); }).find("\"big\""), npos);
  EXPECT_NE(error([&] { (void)v.at("half").as_int<long>("half"); }).find("\"half\""), npos);
  EXPECT_NE(error([&] { (void)v.at("n").as_int<unsigned>("n"); }).find("\"n\""), npos);
  EXPECT_NE(error([&] { (void)v.at("s").as_number("s"); }).find("\"s\""), npos);
  EXPECT_NE(error([&] { (void)v.at("s").at("x"); }).find("\"x\""), npos);
  EXPECT_NE(error([&] { (void)v.at("nope"); }).find("\"nope\""), npos);
}

TEST(Json, RejectsMalformedDocumentsWithAnOffset) {
  const std::string nested = std::string(json::kMaxDepth, '[') + std::string(json::kMaxDepth, ']');
  EXPECT_NO_THROW((void)json::parse(nested, "doc"));
  const std::vector<std::string> docs = {
      "", " ", "{", "[1,]", "{\"a\":1,}", "{a:1}", "[1 2]", "01", "-", "1.", ".5", "1e",
      "+1", "1e400", "NaN", "tru", "\"a\x01\"", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"",
      "\"\\udc00\"", "\"abc", "[] []", "\v1", "[" + nested + "]"};
  for (const std::string& doc : docs) {
    try {
      (void)json::parse(doc, "doc");
      ADD_FAILURE() << "accepted: " << doc.substr(0, 40);
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("doc: ", 0), 0u) << e.what();
      EXPECT_NE(std::string(e.what()).find(" at offset "), npos) << e.what();
    }
  }
}

TEST(Json, EscapeRoundTripsEveryByte) {
  EXPECT_EQ(json::escape("q\"b\\ n\n t\t r\r \x1f"), "q\\\"b\\\\ n\\n t\\t r\\r \\u001f");
  std::string all;
  for (int c = 0; c < 256; ++c) all += char(c);
  const std::string body = json::escape(all);
  EXPECT_EQ(std::count_if(body.begin(), body.end(),
                          [](char c) { return static_cast<unsigned char>(c) < 0x20; }),
            0);
  EXPECT_EQ(json::parse('"' + body + '"', "escaped").as_string("escaped"), all);
}

// Seeded mutation fuzzing of the two file formats the library reads. Each
// mutant must load or fail with tiledqr::Error; any other exception, a
// sanitizer report or a crash is a parser bug. The seed is fixed so a failure
// reproduces, and it is printed with the failing input.
TEST(Json, SeededMutationsOnlyEverThrowError) {
  tuner::TuningTable table;
  table.record(8, 4, 2, "sc11", tuner::TunedDecision{{}, 41.5});
  table.record(20, 5, 8, "f64", tuner::TunedDecision{}, kernels::FactorKind::LQ);
  const std::string seeds[] = {
      table.to_json(),
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"pool0.w0"}},)"
      R"({"name":"TSQRT","ph":"X","pid":1,"tid":3,"ts":2.5,"dur":0.75,)"
      R"("args":{"i":1,"piv":0,"k":0,"j":-1,"task":1,"sub":1,"component":1,"stolen":1}}]})"};
  // Fragments that steer the parser into its branches and range checks.
  static const char* const kWords[] = {"{", "}", "[", "]", ":", ",", "\"", "\\", "\\u",
                                       "\\ud800", "-", ".5", "e9", "1e400", "4294967296",
                                       "true", "null", "\x01"};

  constexpr std::uint64_t kSeed = 0x7115d9a;
  std::mt19937_64 rng(kSeed);
  auto below = [&rng](std::size_t n) { return std::size_t(rng() % std::max<std::size_t>(n, 1)); };
  for (int iter = 0; iter < 4000 && !HasFailure(); ++iter) {
    std::string s = seeds[iter % 2];
    switch (rng() % 4) {
      case 0:  // overwrite 1-4 random bytes
        for (int n = 1 + int(rng() % 4); n > 0; --n) s[below(s.size())] = char(rng());
        break;
      case 1:  // insert 1-2 fragments
        for (int n = 1 + int(rng() % 2); n > 0; --n)
          s.insert(below(s.size() + 1), kWords[below(std::size(kWords))]);
        break;
      case 2:  // truncate
        s.resize(below(s.size()));
        break;
      default: {  // splice a prefix onto a suffix of either seed
        const std::string& other = seeds[rng() % 2];
        s = s.substr(0, below(s.size())) + other.substr(below(other.size()));
      }
    }
    auto only_error = [&](const char* reader, auto&& load) {
      try {
        load();
      } catch (const Error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << reader << " threw " << e.what() << " (seed " << kSeed
                      << ", iteration " << iter << ") on:\n" << s;
      }
    };
    only_error("json::parse", [&] { (void)json::parse(s, "fuzz"); });
    only_error("TuningTable::from_json", [&] { (void)tuner::TuningTable::from_json(s); });
    only_error("import_chrome_json", [&] {
      std::istringstream in(s);
      (void)obs::import_chrome_json(in);
    });
  }
}

}  // namespace
}  // namespace tiledqr
