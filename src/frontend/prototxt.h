// Parser for the Caffe-compatible descriptive script of Fig. 4.
//
// The format is Google protobuf text format as used by Caffe:
//
//   layers {
//     name: "conv1"
//     type: CONVOLUTION
//     bottom: "data"
//     top: "conv1"
//     param { num_output: 20  kernel_size: 5  stride: 1 }
//     connect { name: "c2p1"  direction: forward  type: full_per_channel }
//   }
//
// The parser builds a generic message tree (PtMessage); the frontend's
// NetworkDef builder interprets it.  Fields keep their source order and
// may repeat (Caffe repeats `layers`, `bottom`, `top`, ...).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace db {

class PtMessage;

/// A scalar prototxt value: number, quoted string, or bare enum word.
struct PtScalar {
  enum class Kind { kNumber, kString, kEnum, kBool };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string text;  // string contents or enum word

  std::string ToString() const;
};

/// One `name: scalar` or `name { ... }` entry.
struct PtField {
  std::string name;
  int line = 0;                          // source line, for error messages
  std::optional<PtScalar> scalar;        // set for scalar fields
  std::shared_ptr<PtMessage> message;    // set for block fields

  bool is_message() const { return message != nullptr; }

  /// The number scalar as an integer.  Throws db::Error naming the field
  /// and its line when the field is not a number, or when the number is
  /// fractional or outside the int64 range.
  std::int64_t AsInt() const;
};

/// An ordered multimap of fields.
class PtMessage {
 public:
  void Add(PtField field) { fields_.push_back(std::move(field)); }

  const std::vector<PtField>& fields() const { return fields_; }

  /// All fields with the given name, in source order.
  std::vector<const PtField*> All(const std::string& name) const;

  /// The unique field with the given name, or nullptr if absent.
  /// Throws db::Error if the field repeats.
  const PtField* Find(const std::string& name) const;

  /// Typed scalar accessors with defaults.  Each throws db::Error when the
  /// field exists but has the wrong kind.
  std::int64_t GetInt(const std::string& name, std::int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name,
                        const std::string& def) const;
  /// Enum words are returned lower-cased ("CONVOLUTION" -> "convolution").
  std::string GetEnum(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  bool Has(const std::string& name) const { return Find(name) != nullptr; }

 private:
  std::vector<PtField> fields_;
};

/// Parse prototxt text into a message tree.  Throws db::ParseError with a
/// line number on malformed input.  Supports `#` line comments, optional
/// `:` before sub-messages, and `,`/`;` as whitespace (Caffe tolerance).
PtMessage ParsePrototxt(const std::string& text);

}  // namespace db
