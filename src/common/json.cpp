#include "common/json.hpp"

#include <charconv>
#include <utility>

#include "common/error.hpp"
#include "common/stringf.hpp"

namespace tiledqr::json {

namespace {

constexpr const char* kTypeNames[] = {"null",     "a boolean", "a number",
                                      "a string", "an array",  "an object"};
constexpr std::string_view kDigits = "0123456789";

void append_utf8(std::string& out, unsigned cp) {
  static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += char(kLead[tail] | (cp >> (6 * tail)));
  for (int n = tail - 1; n >= 0; --n) out += char(0x80 | ((cp >> (6 * n)) & 0x3F));
}

[[noreturn]] void field_error(std::string_view what, const std::string& problem) {
  throw Error("JSON field \"" + std::string(what) + "\" " + problem);
}

}  // namespace

// Recursive descent over the RFC 8259 grammar. Container depth is counted so
// recursion stays bounded by kMaxDepth whatever the input.
class Parser {
 public:
  Parser(std::string_view text, std::string_view what) : text_(text), what_(what) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(std::string(what_) + ": " + msg + " at offset " + std::to_string(pos_));
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  // Consumes the next byte when it is one of `chars`.
  bool accept(std::string_view chars) {
    if (pos_ >= text_.size() || chars.find(text_[pos_]) == std::string_view::npos) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!accept({&c, 1})) fail(stringf("expected '%c'", c));
  }

  void skip_ws() { while (accept(" \t\n\r")) {} }

  Value value(int depth) {
    skip_ws();
    Value v;
    switch (const char c = peek()) {
      case '{': v.v_ = object(depth + 1); break;
      case '[': v.v_ = array(depth + 1); break;
      case '"': v.v_ = string(); break;
      case 't': literal("true"); v.v_ = true; break;
      case 'f': literal("false"); v.v_ = false; break;
      case 'n': literal("null"); break;
      default:
        if (c != '-' && kDigits.find(c) == std::string_view::npos) fail("unexpected character");
        v.v_ = number();
    }
    return v;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  // The comma-separated members of the container whose opening bracket is
  // next, up to `close`; `member` parses one.
  template <class F>
  void members(char close, int depth, F&& member) {
    if (depth > kMaxDepth) fail("nesting too deep");
    ++pos_;
    skip_ws();
    if (accept({&close, 1})) return;
    do {
      member();
      skip_ws();
    } while (accept(","));
    expect(close);
  }

  Value::Object object(int depth) {
    Value::Object obj;
    members('}', depth, [&] {
      skip_ws();
      if (peek() != '"') fail("expected a string key");
      std::string key = string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), value(depth));
    });
    return obj;
  }

  Value::Array array(int depth) {
    Value::Array arr;
    members(']', depth, [&] { arr.push_back(value(depth)); });
    return arr;
  }

  std::string string() {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    ++pos_;  // '"'
    std::string out;
    while (true) {
      const char c = peek();
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
      } else if (accept("u")) {
        append_utf8(out, code_point());
      } else {
        const std::size_t e = kEscapes.find(peek());
        if (e == std::string_view::npos) fail("unknown escape");
        ++pos_;
        out += kDecoded[e];
      }
    }
  }

  unsigned hex4() {
    unsigned code = 0;
    const char* p = text_.data() + pos_;
    if (text_.size() - pos_ < 4 || std::from_chars(p, p + 4, code, 16).ptr != p + 4)
      fail("bad \\u escape");
    pos_ += 4;
    return code;
  }

  // The code point after "\u", joining a UTF-16 surrogate pair.
  unsigned code_point() {
    const unsigned hi = hex4();
    if (hi < 0xD800 || hi > 0xDFFF) return hi;
    if (hi > 0xDBFF || !accept("\\") || !accept("u")) fail("unpaired surrogate");
    const unsigned lo = hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, checked before conversion.
  double number() {
    const std::size_t start = pos_;
    auto digits = [this] {
      if (!accept(kDigits)) fail("bad number");
      while (accept(kDigits)) {}
    };
    accept("-");
    if (!accept("0")) digits();
    if (accept(".")) digits();
    if (accept("eE")) {
      accept("+-");
      digits();
    }
    double v = 0.0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, v).ec != std::errc()) {
      pos_ = start;
      fail("number out of range");
    }
    return v;
  }

  std::string_view text_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text, std::string_view what) {
  return Parser(text, what).document();
}

const Value* Value::find(std::string_view key) const noexcept {
  const auto* obj = std::get_if<Object>(&v_);
  if (obj == nullptr) return nullptr;
  const auto it = obj->find(key);
  return it == obj->end() ? nullptr : &it->second;
}

const Value& Value::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  field_error(key, type() == Type::Object ? "is missing" : "looked up in a non-object");
}

template <class T>
const T& Value::get(std::string_view what, Type expected) const {
  if (const T* v = std::get_if<T>(&v_)) return *v;
  field_error(what, std::string("must be ") + kTypeNames[int(expected)] + ", not " +
                        kTypeNames[int(type())]);
}

double Value::as_number(std::string_view what) const { return get<double>(what, Type::Number); }
bool Value::as_bool(std::string_view what) const { return get<bool>(what, Type::Bool); }
const std::string& Value::as_string(std::string_view what) const {
  return get<std::string>(what, Type::String);
}
const Value::Array& Value::as_array(std::string_view what) const {
  return get<Array>(what, Type::Array);
}

double Value::integral(std::string_view what, double lo, double hi) const {
  const double d = as_number(what);
  if (std::floor(d) != d || d < lo || d >= hi)
    field_error(what, stringf("must be an integer in [%.0f, %.0f), not %.17g", lo, hi, d));
  return d;
}

std::string escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') out += {'\\', c};
    else if (c == '\n') out += "\\n";
    else if (c == '\t') out += "\\t";
    else if (c == '\r') out += "\\r";
    else if (u < 0x20) out += {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xF]};
    else out += c;
  }
  return out;
}

}  // namespace tiledqr::json
