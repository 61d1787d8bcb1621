// JSON reading and string escaping for the tuning table, the Chrome-trace
// export and import, and the metrics dump.
//
// json::parse is strict RFC 8259: the exact number grammar (a value out of
// double range is an error), no raw control characters in strings, \uXXXX
// (surrogate pairs included) decoded to UTF-8, and at most kMaxDepth nested
// containers, so a hostile file cannot exhaust the stack. Failures throw
// tiledqr::Error naming the document and the byte offset. A duplicate object
// key keeps its last value.
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tiledqr::json {

inline constexpr int kMaxDepth = 64;

enum class Type { Null, Bool, Number, String, Array, Object };

class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value, std::less<>>;

  [[nodiscard]] Type type() const noexcept { return Type(v_.index()); }

  /// The member `key`, or nullptr when this is not an object or lacks it.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  /// The member `key`; throws Error naming `key` when this is not an object
  /// or lacks it.
  [[nodiscard]] const Value& at(std::string_view key) const;

  // Typed reads; each throws Error naming `what` (the field) on a mismatch.
  [[nodiscard]] double as_number(std::string_view what) const;
  [[nodiscard]] const std::string& as_string(std::string_view what) const;
  [[nodiscard]] bool as_bool(std::string_view what) const;
  [[nodiscard]] const Array& as_array(std::string_view what) const;
  /// An integral number that fits the integer type I, range-checked before
  /// the cast.
  template <class I>
  [[nodiscard]] I as_int(std::string_view what) const {
    using L = std::numeric_limits<I>;  // min() and max() + 1 are exact doubles
    return static_cast<I>(integral(what, double(L::min()), std::ldexp(1.0, L::digits)));
  }

 private:
  friend class Parser;

  template <class T>
  const T& get(std::string_view what, Type expected) const;
  /// as_number, checked integral and within [lo, hi).
  [[nodiscard]] double integral(std::string_view what, double lo, double hi) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses one JSON document; `what` names it in error messages.
[[nodiscard]] Value parse(std::string_view text, std::string_view what);

/// The body of a JSON string literal for `s` (no surrounding quotes): '"',
/// '\\', '\n', '\t' and '\r' get their short escapes, other bytes below 0x20
/// become \u00XX, everything else is copied as is.
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace tiledqr::json
