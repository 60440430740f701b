#ifndef LSQCA_COMMON_JSON_H
#define LSQCA_COMMON_JSON_H

/**
 * @file
 * Minimal ordered JSON document type for machine-readable bench output
 * (`bench/out/BENCH_<name>.json`) and declarative experiment specs
 * (the `specs/` directory). Insertion order of object keys is preserved so
 * diffs between runs stay line-stable; numbers are emitted with enough
 * precision to round-trip doubles. parse(dump(x)) == x for any x the
 * parser produced; for built documents the value round-trips but the
 * numeric kind may not (a whole-valued Double dumps as "5" and
 * reparses as Int, and non-finite doubles dump as null). Either way
 * the bytes round-trip: parse(dump(x)).dump() == dump(x) at any
 * indent, which is what lets a job-cache hit splice a parsed entry
 * into a BENCH document byte for byte.
 *
 * Storage: a value holds exactly one payload, a std::variant of null,
 * object (a vector of key/value pairs in insertion order), array,
 * string, double, int64 and bool, so a number costs no string or
 * vector (40 bytes per value, 72 per object member, on LP64).
 *
 * Number grammar (RFC 8259): an optional '-', then '0' or a nonzero
 * digit followed by digits, then optionally '.' and at least one
 * digit, then optionally 'e' or 'E', an optional sign and at least one
 * digit. ".5", "1.", "1.e3", "01", "+1" and "1e" are rejected.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace lsqca {

/** An ordered JSON value (object, array, string, number, bool, null). */
class Json
{
  public:
    /** Null by default. */
    Json() = default;

    static Json object();
    static Json array();

    Json(const char *s);
    Json(std::string s);
    Json(double v);
    Json(std::int64_t v);
    Json(std::int32_t v);
    Json(bool v);

    /**
     * Parse a JSON document (strict RFC-8259 subset: no comments, no
     * trailing commas, objects and arrays nested at most 1,000 levels
     * deep). @throws ConfigError with a line:column position on
     * malformed input. Integers without fraction/exponent that fit
     * an int64 parse as Int; everything else numeric parses as Double,
     * and so does "-0" (the dump of the Double -0.0).
     */
    static Json parse(const std::string &text);

    /** parse() the contents of @p path. @throws ConfigError. */
    static Json load(const std::string &path);

    bool isNull() const { return kind() == Kind::Null; }
    bool isObject() const { return kind() == Kind::Object; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isString() const { return kind() == Kind::String; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isInt() const { return kind() == Kind::Int; }
    /** Int or Double. */
    bool isNumber() const
    {
        return kind() == Kind::Int || kind() == Kind::Double;
    }

    /** String payload. @throws ConfigError when not a string. */
    const std::string &asString() const;
    /** Bool payload. @throws ConfigError when not a bool. */
    bool asBool() const;
    /** Integer payload; exact doubles allowed. @throws ConfigError. */
    std::int64_t asInt() const;
    /** Numeric payload widened to double. @throws ConfigError. */
    double asDouble() const;

    /** Object members in insertion order. @throws on non-objects. */
    const std::vector<std::pair<std::string, Json>> &members() const;
    /** Array items. @throws ConfigError on non-arrays. */
    const std::vector<Json> &items() const;

    /** Member lookup; nullptr when absent. @throws on non-objects. */
    const Json *find(const std::string &key) const;
    /** True when the object has @p key. @throws on non-objects. */
    bool contains(const std::string &key) const
    {
        return find(key) != nullptr;
    }
    /** Member access. @throws ConfigError when absent. */
    const Json &at(const std::string &key) const;

    /**
     * Move the value of member @p key out of this object, leaving null
     * in its place. @throws ConfigError when absent or not an object.
     */
    Json take(const std::string &key);

    /** Object member count / array length / 0 for scalars. */
    std::size_t size() const;

    /** Structural equality (key order significant for objects). */
    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const { return !(*this == other); }

    /** Set @p key on an object (insertion order preserved). */
    Json &set(std::string key, Json value);

    /** Append to an array. */
    Json &push(Json value);

    /** Serialized document; @p indent = 0 gives compact output. */
    std::string dump(int indent = 2) const;

    /** dump() to @p path, creating parent directories as needed. */
    void write(const std::string &path, int indent = 2) const;

  private:
    using Members = std::vector<std::pair<std::string, Json>>;

    /** The variant's alternative index, one per kind. */
    enum class Kind : std::uint8_t
    {
        Null,
        Object,
        Array,
        String,
        Double,
        Int,
        Bool,
    };

    class Parser;

    Kind kind() const { return static_cast<Kind>(value_.index()); }

    void dumpTo(std::string &out, int indent, int depth) const;

    std::variant<std::monostate, Members, std::vector<Json>, std::string,
                 double, std::int64_t, bool>
        value_;
};

} // namespace lsqca

#endif // LSQCA_COMMON_JSON_H
