#include "common/json.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/fs.h"

namespace lsqca {

// Vectors of values and members grow by moving their elements.
static_assert(std::is_nothrow_move_constructible_v<Json>);

namespace {

/** Byte classes, so each scanning loop tests a byte with one load. */
enum : unsigned char
{
    kWhitespace = 1, ///< ' ', '\t', '\n' and '\r' between tokens
    kEscaped = 2,    ///< '"', '\\' and the control bytes below 0x20
};

constexpr std::array<unsigned char, 256> kByteClass = [] {
    std::array<unsigned char, 256> classes{};
    for (int c = 0; c < 0x20; ++c)
        classes[c] = kEscaped;
    classes['"'] = kEscaped;
    classes['\\'] = kEscaped;
    for (const char c : {' ', '\t', '\n', '\r'})
        classes[static_cast<unsigned char>(c)] |= kWhitespace;
    return classes;
}();

inline bool
isClass(char c, unsigned char byteClass)
{
    return (kByteClass[static_cast<unsigned char>(c)] & byteClass) != 0;
}

/** True for the bytes a JSON string must escape. */
inline bool
needsEscape(char c)
{
    return isClass(c, kEscaped);
}

void
appendEscaped(std::string &out, std::string_view s)
{
    out += '"';
    const char *run = s.data();
    const char *const end = run + s.size();
    for (const char *p = run; p != end; ++p) {
        const char c = *p;
        if (!needsEscape(c))
            continue;
        out.append(run, static_cast<std::size_t>(p - run));
        run = p + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const char escape[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF],
                                   kHex[c & 0xF]};
            out.append(escape, sizeof escape);
          }
        }
    }
    out.append(run, static_cast<std::size_t>(end - run));
    out += '"';
}

void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null"; // JSON has no Inf/NaN
        return;
    }
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof buf, v,
                      std::chars_format::general, 17);
    out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

void
appendInt(std::string &out, std::int64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

} // namespace

/**
 * Recursive-descent parser over a string with line:column errors. One
 * grammar serves two walks: parseValue<true> builds a value, and
 * parseValue<false> checks one against the same code (numbers,
 * escapes, duplicate keys, the nesting bound) without building it.
 */
class Json::Parser
{
  public:
    explicit Parser(const std::string &text)
        : begin_(text.data()), end_(text.data() + text.size()), p_(begin_)
    {
    }

    /** A keep() that builds every member of an object, or none. */
    template <bool Build>
    struct All
    {
        bool operator()(std::string_view) const { return Build; }
    };

    /**
     * The whole document. A top-level object builds only the members
     * whose key @p keep accepts; the rest are checked, not built.
     */
    template <class Keep>
    Json
    document(Keep keep)
    {
        skipWs();
        Json value;
        if (peek() == '{') {
            const Level level(*this);
            value = parseObject(keep);
        } else {
            value = parseValue<true>();
        }
        skipWs();
        if (p_ != end_)
            fail("trailing characters after JSON document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        std::size_t line = 1, col = 1;
        for (const char *q = begin_; q < p_ && q < end_; ++q) {
            if (*q == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw ConfigError("JSON parse error at " + std::to_string(line) +
                          ":" + std::to_string(col) + ": " + msg);
    }

    [[noreturn]] void
    failAt(const char *where, const std::string &msg)
    {
        p_ = where;
        fail(msg);
    }

    char
    peek() const
    {
        if (p_ == end_)
            fail("unexpected end of input");
        return *p_;
    }

    char
    next()
    {
        const char c = peek();
        ++p_;
        return c;
    }

    void
    skipWs()
    {
        const char *p = p_;
        while (p != end_ && isClass(*p, kWhitespace))
            ++p;
        p_ = p;
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + *p_ + "'");
        ++p_;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (static_cast<std::size_t>(end_ - p_) < n ||
            std::memcmp(p_, word, n) != 0)
            return false;
        p_ += n;
        return true;
    }

    /** One object or array level: bounds the stack a document takes. */
    class Level
    {
      public:
        explicit Level(Parser &parser) : parser_(parser)
        {
            if (++parser_.depth_ > kMaxDepth)
                parser_.fail("objects and arrays nest deeper than " +
                             std::to_string(kMaxDepth) + " levels");
        }
        ~Level() { --parser_.depth_; }
        Level(const Level &) = delete;
        Level &operator=(const Level &) = delete;

      private:
        Parser &parser_;
    };

    /** A value; with Build false, checked and returned as null. */
    template <bool Build>
    Json
    parseValue()
    {
        switch (peek()) {
          case '{': {
            const Level level(*this);
            return parseObject(All<Build>{});
          }
          case '[': {
            const Level level(*this);
            return parseArray<Build>();
          }
          case '"': {
            if constexpr (Build) {
                std::string s;
                parseString<true>(&s);
                return Json(std::move(s));
            }
            parseString<false>(nullptr);
            return Json();
          }
          case 't':
            if (consumeWord("true"))
                return Json(true);
            fail("invalid literal");
          case 'f':
            if (consumeWord("false"))
                return Json(false);
            fail("invalid literal");
          case 'n':
            if (consumeWord("null"))
                return Json();
            fail("invalid literal");
          // Built either way: the conversion is part of the grammar
          // (1e999 is out of range), and a number allocates nothing.
          default: return parseNumber();
        }
    }

    /**
     * An object whose members are built when @p keep accepts their key
     * and checked otherwise. The keys of the members not built are
     * kept, decoded, in skipped_ for the duplicate check, so "a" and
     * "\u0061" collide whether built or not; in an object that builds
     * nothing, a key is decoded straight onto skipped_.
     */
    template <class Keep>
    Json
    parseObject(Keep keep)
    {
        expect('{');
        Json obj = Json::object();
        Members &members = std::get<Members>(obj.value_);
        skipWs();
        if (peek() == '}') {
            ++p_;
            return obj;
        }
        constexpr bool kCheckOnly = std::is_same_v<Keep, All<false>>;
        const std::size_t firstSkipped = skippedEnds_.size();
        const std::size_t skippedBegin = skipped_.size();
        for (;;) {
            skipWs();
            if (peek() != '"')
                fail("expected object key string");
            std::string key;
            std::string_view decoded;
            if constexpr (kCheckOnly) {
                const std::size_t keyBegin = skipped_.size();
                parseString<true>(&skipped_);
                decoded = std::string_view(skipped_).substr(keyBegin);
            } else {
                parseString<true>(&key);
                decoded = key;
            }
            const bool built = keep(decoded);
            if (seen(decoded, built, members, firstSkipped, skippedBegin))
                fail("duplicate object key \"" + std::string(decoded) +
                     "\"");
            skipWs();
            expect(':');
            skipWs();
            if (built) {
                members.emplace_back(std::move(key), parseValue<true>());
            } else {
                if constexpr (!kCheckOnly)
                    skipped_ += key;
                skippedEnds_.push_back(skipped_.size());
                parseValue<false>();
            }
            skipWs();
            const char c = next();
            if (c == '}') {
                skipped_.resize(skippedBegin);
                skippedEnds_.resize(firstSkipped);
                return obj;
            }
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    /**
     * True when the object being parsed already has @p key. keep()
     * reads only the key, so a key @p built can only repeat a built
     * member, and a skipped one only a skipped key.
     */
    bool
    seen(std::string_view key, bool built, const Members &members,
         std::size_t firstSkipped, std::size_t skippedBegin) const
    {
        if (built) {
            for (const auto &member : members)
                if (member.first == key)
                    return true;
            return false;
        }
        std::size_t begin = skippedBegin;
        for (std::size_t k = firstSkipped; k < skippedEnds_.size(); ++k) {
            if (std::string_view(skipped_).substr(
                    begin, skippedEnds_[k] - begin) == key)
                return true;
            begin = skippedEnds_[k];
        }
        return false;
    }

    template <bool Build>
    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        std::vector<Json> &items = std::get<std::vector<Json>>(arr.value_);
        skipWs();
        if (peek() == ']') {
            ++p_;
            return arr;
        }
        for (;;) {
            skipWs();
            Json item = parseValue<Build>();
            if constexpr (Build)
                items.push_back(std::move(item));
            skipWs();
            const char c = next();
            if (c == ']')
                return arr;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    /** A string, decoded onto @p out when Build (checked otherwise). */
    template <bool Build>
    void
    parseString([[maybe_unused]] std::string *out)
    {
        expect('"');
        for (;;) {
            // Append the run of bytes up to the next quote, backslash
            // or control character in one step.
            const char *const run = p_;
            const char *p = p_;
            while (p != end_ && !needsEscape(*p))
                ++p;
            p_ = p;
            if constexpr (Build)
                out->append(run, static_cast<std::size_t>(p_ - run));
            const char c = peek();
            if (c == '"') {
                ++p_;
                return;
            }
            if (c != '\\')
                fail("unescaped control character in string");
            ++p_;
            const char esc = next();
            char decoded = 0;
            switch (esc) {
              case '"': decoded = '"'; break;
              case '\\': decoded = '\\'; break;
              case '/': decoded = '/'; break;
              case 'b': decoded = '\b'; break;
              case 'f': decoded = '\f'; break;
              case 'n': decoded = '\n'; break;
              case 'r': decoded = '\r'; break;
              case 't': decoded = '\t'; break;
              case 'u': {
                std::uint32_t code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = next();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<std::uint32_t>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<std::uint32_t>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<std::uint32_t>(h - 'A' + 10);
                    else
                        fail("invalid \\u escape");
                }
                if constexpr (Build)
                    appendUtf8(*out, code);
                continue;
              }
              default: fail("invalid escape sequence");
            }
            if constexpr (Build)
                *out += decoded;
        }
    }

    /**
     * UTF-8 encode a BMP code point (surrogate pairs are passed
     * through as two 3-byte sequences; the writer only ever emits
     * \u00xx control escapes).
     */
    static void
    appendUtf8(std::string &out, std::uint32_t code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    /** Skip a run of digits; false when there is none. */
    bool
    digits()
    {
        const char *const start = p_;
        while (p_ != end_ && *p_ >= '0' && *p_ <= '9')
            ++p_;
        return p_ != start;
    }

    Json
    parseNumber()
    {
        // RFC 8259: a digit on each side of '.' and after the
        // exponent marker.
        const char *const start = p_;
        if (p_ != end_ && *p_ == '-')
            ++p_;
        const char *const intDigits = p_;
        if (!digits())
            failAt(start, "invalid number");
        // No leading zeros ("01" is invalid JSON).
        if (*intDigits == '0' && p_ - intDigits > 1)
            failAt(start, "leading zeros are not allowed");
        bool integral = true;
        if (p_ != end_ && *p_ == '.') {
            ++p_;
            integral = false;
            if (!digits())
                failAt(start, "invalid number");
        }
        if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
            ++p_;
            integral = false;
            if (p_ != end_ && (*p_ == '+' || *p_ == '-'))
                ++p_;
            if (!digits())
                failAt(start, "invalid number");
        }
        if (integral) {
            std::int64_t value = 0;
            const auto res = std::from_chars(start, p_, value);
            // "-0" is how the Double -0.0 dumps: read it back as one,
            // so its bytes round-trip.
            if (res.ec == std::errc() && res.ptr == p_)
                return value == 0 && *start == '-' ? Json(-0.0)
                                                   : Json(value);
            // Fall through: out-of-range integers parse as doubles.
        }
        double value = 0.0;
        const auto res = std::from_chars(start, p_, value);
        if (res.ec != std::errc() || res.ptr != p_)
            failAt(start, "invalid number");
        return Json(value);
    }

    static constexpr int kMaxDepth = 1000;

    const char *const begin_;
    const char *const end_;
    const char *p_;
    int depth_ = 0;
    /**
     * Decoded keys of the members checked but not built, back to back,
     * for every object open on the stack.
     */
    std::string skipped_;
    /** End offset in skipped_ of each of those keys. */
    std::vector<std::size_t> skippedEnds_;
};

Json
Json::object()
{
    Json j;
    j.value_.emplace<Members>();
    return j;
}

Json
Json::array()
{
    Json j;
    j.value_.emplace<std::vector<Json>>();
    return j;
}

Json::Json(const char *s) : value_(std::in_place_type<std::string>, s) {}
Json::Json(std::string s)
    : value_(std::in_place_type<std::string>, std::move(s))
{
}
Json::Json(double v) : value_(std::in_place_type<double>, v) {}
Json::Json(std::int64_t v) : value_(std::in_place_type<std::int64_t>, v) {}
Json::Json(std::int32_t v) : value_(std::in_place_type<std::int64_t>, v) {}
Json::Json(bool v) : value_(std::in_place_type<bool>, v) {}

Json
Json::parse(const std::string &text)
{
    return Parser(text).document(Parser::All<true>{});
}

Json
Json::parseMembers(const std::string &text,
                   std::initializer_list<std::string_view> keys)
{
    return Parser(text).document([keys](std::string_view key) {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    });
}

Json
Json::load(const std::string &path)
{
    const std::optional<std::string> text = fsutil::tryReadFile(path);
    LSQCA_REQUIRE(text.has_value(), "cannot open for reading: " + path);
    try {
        return parse(*text);
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

const std::string &
Json::asString() const
{
    const auto *s = std::get_if<std::string>(&value_);
    LSQCA_REQUIRE(s != nullptr, "JSON value is not a string");
    return *s;
}

bool
Json::asBool() const
{
    const auto *b = std::get_if<bool>(&value_);
    LSQCA_REQUIRE(b != nullptr, "JSON value is not a bool");
    return *b;
}

std::int64_t
Json::asInt() const
{
    if (const auto *i = std::get_if<std::int64_t>(&value_))
        return *i;
    if (const auto *d = std::get_if<double>(&value_)) {
        // Range-check before the cast: int64 conversion of an
        // out-of-range double is undefined behavior.
        LSQCA_REQUIRE(*d >= -9223372036854775808.0 &&
                          *d < 9223372036854775808.0,
                      "JSON number is out of integer range");
        const auto as_int = static_cast<std::int64_t>(*d);
        LSQCA_REQUIRE(static_cast<double>(as_int) == *d,
                      "JSON number is not an integer");
        return as_int;
    }
    throw ConfigError("JSON value is not an integer");
}

double
Json::asDouble() const
{
    if (const auto *i = std::get_if<std::int64_t>(&value_))
        return static_cast<double>(*i);
    const auto *d = std::get_if<double>(&value_);
    LSQCA_REQUIRE(d != nullptr, "JSON value is not a number");
    return *d;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    const auto *members = std::get_if<Members>(&value_);
    LSQCA_REQUIRE(members != nullptr, "JSON value is not an object");
    return *members;
}

const std::vector<Json> &
Json::items() const
{
    const auto *items = std::get_if<std::vector<Json>>(&value_);
    LSQCA_REQUIRE(items != nullptr, "JSON value is not an array");
    return *items;
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &member : members())
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *value = find(key);
    LSQCA_REQUIRE(value != nullptr, "missing JSON key \"" + key + "\"");
    return *value;
}

Json
Json::take(const std::string &key)
{
    auto *members = std::get_if<Members>(&value_);
    LSQCA_REQUIRE(members != nullptr, "JSON value is not an object");
    for (auto &member : *members)
        if (member.first == key)
            return std::exchange(member.second, Json());
    throw ConfigError("missing JSON key \"" + key + "\"");
}

std::size_t
Json::size() const
{
    if (const auto *members = std::get_if<Members>(&value_))
        return members->size();
    if (const auto *items = std::get_if<std::vector<Json>>(&value_))
        return items->size();
    return 0;
}

bool
Json::operator==(const Json &other) const
{
    // Kind first, then the payload: an Int never equals a Double.
    return value_ == other.value_;
}

Json &
Json::set(std::string key, Json value)
{
    auto *members = std::get_if<Members>(&value_);
    LSQCA_REQUIRE(members != nullptr, "Json::set on a non-object");
    for (auto &member : *members) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    members->emplace_back(std::move(key), std::move(value));
    return *this;
}

Json &
Json::push(Json value)
{
    auto *items = std::get_if<std::vector<Json>>(&value_);
    LSQCA_REQUIRE(items != nullptr, "Json::push on a non-array");
    items->push_back(std::move(value));
    return *this;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    switch (kind()) {
      case Kind::Null: out += "null"; break;
      case Kind::String:
        appendEscaped(out, std::get<std::string>(value_));
        break;
      case Kind::Double: appendDouble(out, std::get<double>(value_)); break;
      case Kind::Int: appendInt(out, std::get<std::int64_t>(value_)); break;
      case Kind::Bool:
        out += std::get<bool>(value_) ? "true" : "false";
        break;
      case Kind::Object: {
        const Members &members = std::get<Members>(value_);
        if (members.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < members.size(); ++i) {
            newline(depth + 1);
            appendEscaped(out, members[i].first);
            out += indent > 0 ? ": " : ":";
            members[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < members.size())
                out += ',';
        }
        newline(depth);
        out += '}';
        break;
      }
      case Kind::Array: {
        const std::vector<Json> &items = std::get<std::vector<Json>>(value_);
        if (items.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            newline(depth + 1);
            items[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < items.size())
                out += ',';
        }
        newline(depth);
        out += ']';
        break;
      }
    }
}

void
JsonWriter::key(std::string_view key)
{
    if (out_.back() != '{')
        out_ += ',';
    appendEscaped(out_, key);
    out_ += ':';
}

void
JsonWriter::value(std::string_view s)
{
    appendEscaped(out_, s);
}

void
JsonWriter::value(double v)
{
    appendDouble(out_, v);
}

void
JsonWriter::value(std::int64_t v)
{
    appendInt(out_, v);
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

void
Json::write(const std::string &path, int indent) const
{
    fsutil::replaceFile(path, dump(indent));
}

} // namespace lsqca
