// Tests for the generic prototxt lexer/parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.h"
#include "frontend/network_def.h"
#include "frontend/prototxt.h"

namespace db {
namespace {

TEST(Prototxt, ScalarFields) {
  const PtMessage msg = ParsePrototxt(
      "name: \"net\"\ncount: 42\nratio: 0.5\nkind: CONVOLUTION\n"
      "flag: true\n");
  EXPECT_EQ(msg.GetString("name", ""), "net");
  EXPECT_EQ(msg.GetInt("count", 0), 42);
  EXPECT_DOUBLE_EQ(msg.GetDouble("ratio", 0.0), 0.5);
  EXPECT_EQ(msg.GetEnum("kind", ""), "convolution");
  EXPECT_TRUE(msg.GetBool("flag", false));
}

TEST(Prototxt, DefaultsWhenAbsent) {
  const PtMessage msg = ParsePrototxt("a: 1\n");
  EXPECT_EQ(msg.GetInt("missing", 7), 7);
  EXPECT_EQ(msg.GetString("missing", "d"), "d");
  EXPECT_FALSE(msg.GetBool("missing", false));
}

TEST(Prototxt, NestedBlocks) {
  const PtMessage msg = ParsePrototxt(
      "layers {\n  name: \"conv1\"\n  param { kernel_size: 5 }\n}\n");
  const auto layers = msg.All("layers");
  ASSERT_EQ(layers.size(), 1u);
  ASSERT_TRUE(layers[0]->is_message());
  const PtMessage& layer = *layers[0]->message;
  EXPECT_EQ(layer.GetString("name", ""), "conv1");
  const PtField* param = layer.Find("param");
  ASSERT_NE(param, nullptr);
  EXPECT_EQ(param->message->GetInt("kernel_size", 0), 5);
}

TEST(Prototxt, RepeatedFieldsKeepOrder) {
  const PtMessage msg =
      ParsePrototxt("bottom: \"a\"\nbottom: \"b\"\nbottom: \"c\"\n");
  const auto bottoms = msg.All("bottom");
  ASSERT_EQ(bottoms.size(), 3u);
  EXPECT_EQ(bottoms[0]->scalar->text, "a");
  EXPECT_EQ(bottoms[2]->scalar->text, "c");
}

TEST(Prototxt, FindRejectsRepeats) {
  const PtMessage msg = ParsePrototxt("x: 1\nx: 2\n");
  EXPECT_THROW(msg.Find("x"), Error);
}

TEST(Prototxt, CommentsAndSeparatorsIgnored) {
  const PtMessage msg = ParsePrototxt(
      "# leading comment\na: 1, b: 2; c: 3 # trailing\n");
  EXPECT_EQ(msg.GetInt("a", 0), 1);
  EXPECT_EQ(msg.GetInt("b", 0), 2);
  EXPECT_EQ(msg.GetInt("c", 0), 3);
}

TEST(Prototxt, OptionalColonBeforeBlock) {
  const PtMessage msg = ParsePrototxt("block: { x: 1 }\nplain { y: 2 }\n");
  EXPECT_EQ(msg.Find("block")->message->GetInt("x", 0), 1);
  EXPECT_EQ(msg.Find("plain")->message->GetInt("y", 0), 2);
}

TEST(Prototxt, NegativeAndScientificNumbers) {
  const PtMessage msg = ParsePrototxt("a: -3\nb: 1e-4\nc: +2.5\n");
  EXPECT_EQ(msg.GetInt("a", 0), -3);
  EXPECT_DOUBLE_EQ(msg.GetDouble("b", 0.0), 1e-4);
  EXPECT_DOUBLE_EQ(msg.GetDouble("c", 0.0), 2.5);
}

TEST(Prototxt, SingleAndDoubleQuotes) {
  const PtMessage msg = ParsePrototxt("a: \"dq\"\nb: 'sq'\n");
  EXPECT_EQ(msg.GetString("a", ""), "dq");
  EXPECT_EQ(msg.GetString("b", ""), "sq");
}

TEST(Prototxt, EscapedQuoteInString) {
  const PtMessage msg = ParsePrototxt("a: \"he\\\"llo\"\n");
  EXPECT_EQ(msg.GetString("a", ""), "he\"llo");
}

TEST(Prototxt, ErrorUnterminatedString) {
  try {
    ParsePrototxt("a: \"oops\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
  }
}

TEST(Prototxt, ErrorMissingCloseBrace) {
  EXPECT_THROW(ParsePrototxt("block { a: 1\n"), ParseError);
}

TEST(Prototxt, ErrorStrayCloseBrace) {
  EXPECT_THROW(ParsePrototxt("a: 1\n}\n"), ParseError);
}

TEST(Prototxt, ErrorMissingValue) {
  EXPECT_THROW(ParsePrototxt("a:\n"), ParseError);
}

TEST(Prototxt, ErrorMissingColon) {
  EXPECT_THROW(ParsePrototxt("a 1\n"), ParseError);
}

TEST(Prototxt, ErrorReportsLineNumber) {
  try {
    ParsePrototxt("a: 1\nb: 2\nc @\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Prototxt, TypeMismatchThrows) {
  const PtMessage msg = ParsePrototxt("a: \"text\"\nn: 5\n");
  EXPECT_THROW(msg.GetInt("a", 0), Error);
  EXPECT_THROW(msg.GetBool("n", false), Error);
}

TEST(Prototxt, IntegerFieldsRejectFractionsAndOutOfRange) {
  const PtMessage msg = ParsePrototxt(
      "half: 2.5\nhuge: 1e30\nsmall: -1e30\ntop: 9223372036854775808\n"
      "bottom: -9223372036854775808\nhundreds: 3e2\nnegzero: -0.0\n");
  const auto message = [&](const std::string& name) -> std::string {
    try {
      msg.GetInt(name, 0);
    } catch (const Error& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_NE(message("half").find("'half' value 2.5 is not an integer "
                                 "(line 1)"),
            std::string::npos)
      << message("half");
  EXPECT_NE(message("huge").find("'huge' value 1e30 is outside the "
                                 "integer range (line 2)"),
            std::string::npos)
      << message("huge");
  EXPECT_NE(message("small").find("outside the integer range (line 3)"),
            std::string::npos);
  // 2^63 is one past INT64_MAX; -2^63 is INT64_MIN itself.
  EXPECT_NE(message("top").find("outside the integer range (line 4)"),
            std::string::npos);
  EXPECT_EQ(msg.GetInt("bottom", 0), INT64_MIN);
  EXPECT_EQ(msg.GetInt("hundreds", 0), 300);
  EXPECT_EQ(msg.GetInt("negzero", 1), 0);

  // Repeated integer fields (input_dim) go through the same check.
  EXPECT_THROW(ParseNetworkDef("name: \"n\"\ninput: \"data\"\n"
                               "input_dim: 1\ninput_dim: 3\n"
                               "input_dim: 8.5\ninput_dim: 8\n"),
               Error);
}

TEST(Prototxt, DeeplyNested) {
  const PtMessage msg =
      ParsePrototxt("a { b { c { d: 4 } } }\n");
  const PtMessage& a = *msg.Find("a")->message;
  const PtMessage& b = *a.Find("b")->message;
  const PtMessage& c = *b.Find("c")->message;
  EXPECT_EQ(c.GetInt("d", 0), 4);
}

TEST(Prototxt, EmptyInputYieldsEmptyMessage) {
  const PtMessage msg = ParsePrototxt("  \n# only a comment\n");
  EXPECT_TRUE(msg.fields().empty());
}

TEST(Prototxt, ScalarToString) {
  PtScalar num;
  num.kind = PtScalar::Kind::kNumber;
  num.number = 3.5;
  num.text = "3.5";
  EXPECT_EQ(num.ToString(), "3.5");
  PtScalar str;
  str.kind = PtScalar::Kind::kString;
  str.text = "hi";
  EXPECT_EQ(str.ToString(), "\"hi\"");
}

}  // namespace
}  // namespace db
