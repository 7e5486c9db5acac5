#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/rng.h"

namespace vcopt::util {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5").as_number(), -3.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseContainers) {
  const Json v = Json::parse(R"({"a": [1, 2, 3], "b": {"c": "d"}, "e": null})");
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").at(1).as_number(), 2.0);
  EXPECT_EQ(v.at("b").at("c").as_string(), "d");
  EXPECT_TRUE(v.at("e").is_null());
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("z"));
}

TEST(Json, ParseWhitespaceTolerant) {
  const Json v = Json::parse("  {\n\t\"a\" :\r [ ] }  ");
  EXPECT_TRUE(v.at("a").is_array());
  EXPECT_EQ(v.at("a").size(), 0u);
}

TEST(Json, StringEscapes) {
  const Json v = Json::parse(R"("line\nquote\"back\\slash\ttab")");
  EXPECT_EQ(v.as_string(), "line\nquote\"back\\slash\ttab");
  const Json u = Json::parse(R"("Aé中")");
  EXPECT_EQ(u.as_string(), "A\xC3\xA9\xE4\xB8\xAD");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(Json::parse("01"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1 2"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"bad\\q\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\u12g4\""), std::invalid_argument);
}

// A number outside double's range is a parse error at the number, not a
// std::out_of_range from the conversion; an underflow rounds.
TEST(Json, NumberOutOfRangeIsAParseError) {
  for (const char* text : {"1e999", "-1e999", "[1, 2e400]"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(Json::parse(text), JsonParseError);
  }
  try {
    Json::parse("{\"a\": 1e999}");
    ADD_FAILURE() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 6u);
    EXPECT_NE(std::string(e.what()).find("number out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(Json::parse("1e-400").as_number(), 0.0);
  EXPECT_EQ(Json::parse("1.7976931348623157e308").as_number(),
            std::numeric_limits<double>::max());
}

TEST(Json, TypeErrors) {
  const Json v = Json::parse("[1]");
  EXPECT_THROW(v.as_object(), std::logic_error);
  EXPECT_THROW(v.as_string(), std::logic_error);
  EXPECT_THROW(v.at("x"), std::logic_error);
  EXPECT_THROW(v.at(5), std::out_of_range);
  EXPECT_THROW(Json::parse("{}").at("missing"), std::out_of_range);
  EXPECT_THROW(Json::parse("1.5").as_int(), std::logic_error);
  EXPECT_EQ(Json::parse("7").as_int(), 7);
  EXPECT_EQ(Json::parse("-2147483648").as_int(),
            std::numeric_limits<int>::min());
  EXPECT_THROW(Json::parse("2147483648").as_int(), std::logic_error);
  EXPECT_THROW(Json::parse("-2147483649").as_int(), std::logic_error);
  EXPECT_THROW(Json::parse("1e300").as_int(), std::logic_error);
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).as_int(),
               std::logic_error);
  EXPECT_THROW(Json(std::nan("")).as_int(), std::logic_error);
}

TEST(Json, NumberOr) {
  const Json v = Json::parse(R"({"x": 3})");
  EXPECT_DOUBLE_EQ(v.number_or("x", 9), 3.0);
  EXPECT_DOUBLE_EQ(v.number_or("y", 9), 9.0);
}

TEST(Json, DumpCompact) {
  JsonObject obj;
  obj["b"] = Json(true);
  obj["n"] = Json(1.5);
  obj["s"] = Json("x\"y");
  obj["a"] = Json(JsonArray{Json(1), Json(nullptr)});
  const std::string s = Json(obj).dump();
  EXPECT_EQ(s, R"({"a":[1,null],"b":true,"n":1.5,"s":"x\"y"})");
}

TEST(Json, DumpIntegersWithoutDecimals) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7.0).dump(), "-7");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, RoundTrip) {
  const std::string doc =
      R"({"arr":[1,2.5,"three",false],"nested":{"deep":[{"k":null}]}})";
  const Json v = Json::parse(doc);
  const Json again = Json::parse(v.dump());
  EXPECT_EQ(v, again);
}

TEST(Json, PrettyPrintRoundTrips) {
  const Json v = Json::parse(R"({"a": [1, {"b": 2}], "c": "d"})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), v);
}

TEST(Json, Equality) {
  EXPECT_EQ(Json::parse("[1,2]"), Json::parse("[1, 2]"));
  EXPECT_FALSE(Json::parse("[1,2]") == Json::parse("[2,1]"));
  EXPECT_FALSE(Json(1) == Json("1"));
}

// The printf forms the number formatter replaced: "%.0f" for integral
// values below 1e15 in magnitude, "%.17g" for everything else.
std::string printf_number(double v) {
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

TEST(Json, NumberFormatMatchesPrintf) {
  const double kEdges[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           0.5,
                           -2.5,
                           0.1,
                           1.0 / 3.0,
                           999999999999999.0,
                           -999999999999999.0,
                           999999999999999.5,
                           1e15,
                           -1e15,
                           1e15 + 1,
                           0x1p53,
                           0x1p53 + 2,
                           0x1p63,
                           0x1p64,
                           1e16,
                           1e17,
                           1e21,
                           1e22,
                           1e300,
                           1e-5,
                           1e-4,
                           123456.789,
                           5e-324,
                           2.2250738585072014e-308,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double v : kEdges) {
    EXPECT_EQ(Json(v).dump(), printf_number(v)) << "edge " << printf_number(v);
  }
  // Seeded random bit patterns cover every exponent, subnormals and NaNs.
  util::Rng rng(0x5eed5eedULL);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    ASSERT_EQ(Json(v).dump(), printf_number(v)) << "bits " << bits;
  }
  // Integral values of every magnitude up to 2^60, around the 1e15 switch.
  for (int i = 0; i < 200000; ++i) {
    const auto n = static_cast<std::int64_t>(rng() >> (4 + rng() % 60));
    const double v = static_cast<double>(i % 2 == 0 ? n : -n);
    ASSERT_EQ(Json(v).dump(), printf_number(v)) << "integer " << n;
  }
}

TEST(Json, StringEscapesMatchReference) {
  // Every byte on its own: the two JSON metacharacters and the control
  // characters are escaped (\u00XX where JSON has no short form), all other
  // bytes pass through unchanged.
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    std::string want = "\"";
    switch (ch) {
      case '"': want += "\\\""; break;
      case '\\': want += "\\\\"; break;
      case '\b': want += "\\b"; break;
      case '\f': want += "\\f"; break;
      case '\n': want += "\\n"; break;
      case '\r': want += "\\r"; break;
      case '\t': want += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          want += buf;
        } else {
          want += ch;
        }
    }
    want += '"';
    EXPECT_EQ(Json(std::string(1, ch)).dump(), want) << "byte " << c;
    std::string appended = "x";
    append_json_string(appended, std::string_view(&ch, 1));
    EXPECT_EQ(appended, "x" + want) << "byte " << c;
  }
}

}  // namespace
}  // namespace vcopt::util
