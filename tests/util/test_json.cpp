#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <sstream>

#include "util/json_parse.h"

namespace sqz::util {
namespace {

// The formatter json_number replaced, kept as its oracle: "%.*g" at
// increasing precision until strtod gives the identical double back.
std::string printf_oracle(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

// Compares json_number with the oracle on v and both its neighbours, with
// both signs; returns the number of mismatches (the first few are reported).
int mismatches_around(double v) {
  int bad = 0;
  for (double x : {v, std::nextafter(v, 0.0), std::nextafter(v, HUGE_VAL)}) {
    for (double y : {x, -x}) {
      const std::string got = json_number(y), want = printf_oracle(y);
      if (got != want && ++bad <= 3)
        ADD_FAILURE() << "json_number(" << want << ") gave " << got;
    }
  }
  return bad;
}

std::string compact(const std::function<void(JsonWriter&)>& build) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  build(w);
  EXPECT_TRUE(w.done());
  return os.str();
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("conv1 [WS]"), "conv1 [WS]");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
}

TEST(JsonEscape, Utf8BytesPassThrough) {
  EXPECT_EQ(json_escape("32\xc3\x97"
                        "32"),
            "32\xc3\x97"
            "32");  // "32×32"
}

TEST(JsonNumber, IntegersAndSimpleFractions) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(5.0), "5");
  EXPECT_EQ(json_number(0.4), "0.4");
  EXPECT_EQ(json_number(-2.5), "-2.5");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, RoundTripsExactly) {
  // The formatter promises the shortest decimal string that parses back to
  // the identical double — check awkward values bit-exactly.
  for (double v : {1.0 / 3.0, 0.1, 1e300, -1e-300, 3.14159265358979,
                   123456789.123456789, 2.2250738585072014e-308}) {
    const std::string s = json_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(JsonNumber, MatchesPrintfOracleOnRandomBitPatterns) {
  std::mt19937_64 rng(20180624);
  int bad = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = from_bits(rng());
    const std::string got = json_number(v), want = printf_oracle(v);
    if (got != want && ++bad <= 3)
      ADD_FAILURE() << "json_number(" << want << ") gave " << got;
  }
  EXPECT_EQ(bad, 0);
}

TEST(JsonNumber, MatchesPrintfOracleOnRatiosAndIntegers) {
  // The values reports actually hold: utilizations, energies, latencies.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> num(0, 1'000'000'000);
  std::uniform_int_distribution<std::int64_t> den(1, 100'000);
  int bad = 0;
  for (int i = 0; i < 25'000; ++i) {
    const double n = static_cast<double>(num(rng));
    bad += mismatches_around(n / static_cast<double>(den(rng)));
    bad += mismatches_around(n);
  }
  EXPECT_EQ(bad, 0);
}

TEST(JsonNumber, MatchesPrintfOracleAtBoundaries) {
  int bad = mismatches_around(0.0);  // +-0 and the smallest subnormals
  // Every power of two, subnormal through the largest finite.
  for (int e = -1074; e <= 1023; ++e) bad += mismatches_around(std::ldexp(1.0, e));
  // Subnormals with random mantissas, and the largest subnormal.
  std::mt19937_64 rng(3);
  for (int i = 0; i < 10'000; ++i)
    bad += mismatches_around(from_bits(rng() & ((std::uint64_t{1} << 52) - 1)));
  bad += mismatches_around(from_bits((std::uint64_t{1} << 52) - 1));
  // Where %g switches between fixed and exponent form: below 1e-4, and at
  // 10^precision for the precisions a double can need.
  for (double v : {1e-4, 1e-5, 9.9999e-5, 1e15, 1e16, 1e17, 9.999999999999999e15,
                   123456789012345680.0, 1.0 / 3.0 * 1e16, 0.1, 0.2, 0.3})
    bad += mismatches_around(v);
  for (int e = -330; e <= 310; ++e) {
    const double p = std::pow(10.0, e);
    bad += mismatches_around(p);
    bad += mismatches_around(p * 5.0);
  }
  EXPECT_EQ(bad, 0);
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(compact([](JsonWriter& w) {
              w.begin_object();
              w.end_object();
            }),
            "{}");
  EXPECT_EQ(compact([](JsonWriter& w) {
              w.begin_array();
              w.end_array();
            }),
            "[]");
}

TEST(JsonWriter, ObjectMembersAndArrays) {
  const std::string s = compact([](JsonWriter& w) {
    w.begin_object();
    w.member("name", "fire2/squeeze1x1");
    w.member("cycles", std::int64_t{934825});
    w.member("ratio", 0.5);
    w.member("on", true);
    w.key("df");
    w.null_value();
    w.key("tags");
    w.begin_array();
    w.value("a");
    w.value(std::int64_t{2});
    w.end_array();
    w.end_object();
  });
  EXPECT_EQ(s,
            "{\"name\":\"fire2/squeeze1x1\",\"cycles\":934825,\"ratio\":"
            "0.5,\"on\":true,\"df\":null,\"tags\":[\"a\",2]}");
}

TEST(JsonWriter, PrettyPrintIsStable) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object();
  w.member("a", std::int64_t{1});
  w.key("b");
  w.begin_array();
  w.value(std::int64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

// One document with nested empty and non-empty containers, written at
// indent 0 and 2 into both targets.
void nested_document(JsonWriter& w) {
  w.begin_object();
  w.key("empty_object");
  w.begin_object();
  w.end_object();
  w.key("empty_array");
  w.begin_array();
  w.end_array();
  w.key("rows");
  w.begin_array();
  w.begin_object();
  w.member("k", "v");
  w.key("inner");
  w.begin_array();
  w.begin_array();
  w.end_array();
  w.value(0.25);
  w.end_array();
  w.end_object();
  w.begin_object();
  w.end_object();
  w.null_value();
  w.end_array();
  w.member("n", -7);
  w.end_object();
}

TEST(JsonWriter, NestedContainersAreByteIdenticalAtBothIndents) {
  const std::string compact_want =
      "{\"empty_object\":{},\"empty_array\":[],\"rows\":[{\"k\":\"v\","
      "\"inner\":[[],0.25]},{},null],\"n\":-7}";
  const std::string pretty_want =
      "{\n"
      "  \"empty_object\": {},\n"
      "  \"empty_array\": [],\n"
      "  \"rows\": [\n"
      "    {\n"
      "      \"k\": \"v\",\n"
      "      \"inner\": [\n"
      "        [],\n"
      "        0.25\n"
      "      ]\n"
      "    },\n"
      "    {},\n"
      "    null\n"
      "  ],\n"
      "  \"n\": -7\n"
      "}";
  for (const auto& [indent, want] :
       {std::pair{0, compact_want}, std::pair{2, pretty_want}}) {
    std::ostringstream os;
    {
      JsonWriter w(os, indent);
      nested_document(w);
      EXPECT_EQ(os.str(), want);  // the stream has it once the value is done
    }
    std::string appended = "prefix";
    JsonWriter w(appended, indent);
    nested_document(w);
    EXPECT_EQ(appended, "prefix" + want);
    EXPECT_EQ(json_string(indent, nested_document, "\n"), want + "\n");
  }
}

TEST(JsonWriter, StreamTargetWritesLargeDocumentsInBufferedChunks) {
  std::ostringstream os;
  std::string direct;
  JsonWriter w(os, 0), d(direct, 0);
  w.begin_array();
  d.begin_array();
  for (int i = 0; i < 100'000; ++i) {
    w.value(i);
    d.value(i);
  }
  // Mid-document the stream holds whole buffers, the rest waits.
  EXPECT_GE(os.str().size(), JsonWriter::kFlushBytes);
  EXPECT_LT(os.str().size(), direct.size());
  EXPECT_EQ(direct.compare(0, os.str().size(), os.str()), 0);
  w.end_array();
  d.end_array();
  EXPECT_EQ(os.str(), direct);
}

TEST(JsonWriter, NestedJsonStringCallsKeepTheirOwnBuffers) {
  const std::string outer = json_string(0, [](JsonWriter& w) {
    w.begin_object();
    w.member("inner", json_string(0, [](JsonWriter& v) { v.value(1.5); }));
    w.end_object();
  });
  EXPECT_EQ(outer, "{\"inner\":\"1.5\"}");
}

TEST(JsonWriter, JsonStringCarriesNoSpareCapacity) {
  // A growing buffer doubles; the returned string is a fresh copy of it.
  const std::string s = json_string(0, [](JsonWriter& w) {
    w.begin_array();
    for (int i = 0; i < 5000; ++i) w.value(i);
    w.end_array();
  });
  EXPECT_GT(s.size(), 20'000u);
  EXPECT_LT(s.capacity(), s.size() + 16);
}

TEST(JsonWriter, RoundTripsThroughStrictParser) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.member("weird key \"x\"\n", "va\\lue\t");
  w.member("min", std::numeric_limits<std::int64_t>::min());
  w.member("max", std::numeric_limits<std::int64_t>::max());
  w.member("frac", 1.0 / 3.0);
  w.key("nested");
  w.begin_array();
  w.begin_object();
  w.member("deep", false);
  w.end_object();
  w.null_value();
  w.end_array();
  w.end_object();

  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.at("weird key \"x\"\n").as_string(), "va\\lue\t");
  EXPECT_EQ(v.at("min").as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.at("max").raw_number, "9223372036854775807");
  EXPECT_EQ(v.at("frac").as_double(), 1.0 / 3.0);
  EXPECT_EQ(v.at("nested").at(std::size_t{0}).at("deep").as_bool(), false);
  EXPECT_EQ(v.at("nested").at(std::size_t{1}).type, JsonValue::Type::Null);
}

TEST(JsonWriter, MisuseThrowsInsteadOfEmittingGarbage) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(std::int64_t{1}), std::logic_error);  // key missing
  }
  {
    JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key outside object
  }
  {
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter w(os);
    w.begin_object();
    w.key("k");
    EXPECT_THROW(w.end_object(), std::logic_error);  // dangling key
    EXPECT_THROW(w.key("j"), std::logic_error);      // key after key
  }
  {
    JsonWriter w(os);
    w.value("done");
    EXPECT_TRUE(w.done());
    EXPECT_THROW(w.value("again"), std::logic_error);  // two top-level values
  }
}

TEST(MiniJsonParser, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "01",
                          "1.", "1e", "\"\\x\"", "tru", "{\"a\":1}{", "[1] 2",
                          "{\"a\":1,\"a\":2}", "\"\x01\""}) {
    EXPECT_THROW(parse_json(bad), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace sqz::util
