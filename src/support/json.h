/**
 * @file
 * Minimal JSON document model: an ordered value type, a writer that
 * emits round-trippable numbers, and a small recursive-descent
 * parser (used by tests and tools to validate sweep output).
 *
 * Object members keep insertion order so serialized sweeps are
 * byte-stable across runs; duplicate keys overwrite in place.
 */

#ifndef CMT_SUPPORT_JSON_H
#define CMT_SUPPORT_JSON_H

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cmt
{

class StatGroup;

/** One JSON value: null, bool, number, string, array, or object. */
class Json
{
  public:
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Json() = default;
    Json(bool v) : type_(Type::kBool), bool_(v) {}
    Json(double v) : type_(Type::kNumber), num_(v) {}
    Json(int v) : Json(static_cast<double>(v)) {}
    Json(unsigned v) : Json(static_cast<double>(v)) {}
    Json(long v) : Json(static_cast<double>(v)) {}
    Json(unsigned long v) : Json(static_cast<double>(v)) {}
    Json(long long v) : Json(static_cast<double>(v)) {}
    Json(unsigned long long v) : Json(static_cast<double>(v)) {}
    Json(const char *v) : type_(Type::kString), str_(v) {}
    Json(std::string v) : type_(Type::kString), str_(std::move(v)) {}

    /** An empty array (distinct from null). */
    static Json array();
    /** An empty object (distinct from null). */
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isBool() const { return type_ == Type::kBool; }
    bool isNumber() const { return type_ == Type::kNumber; }
    bool isString() const { return type_ == Type::kString; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    const std::string &asString() const { return str_; }

    /** Element / member count (0 for scalars). */
    std::size_t size() const;

    /** Append to an array (converts a null value into an array). */
    Json &push(Json v);
    /** Array element access; fatal when out of range. */
    const Json &at(std::size_t i) const;

    /** Set an object member (converts a null value into an object). */
    Json &set(const std::string &key, Json v);
    /** @return the member or nullptr (also for non-objects). */
    const Json *find(const std::string &key) const;
    bool contains(const std::string &key) const;
    /** Member access; fatal when the key is absent. */
    const Json &at(const std::string &key) const;

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits the compact single-line form.
     */
    void write(std::ostream &os, int indent = 0) const;
    std::string dump(int indent = 0) const;

    /**
     * Parse a complete JSON document.
     * @return false (with a message in @p error when given) on
     *         malformed input or trailing garbage.
     */
    static bool parse(const std::string &text, Json *out,
                      std::string *error = nullptr);

  private:
    void writeIndented(std::ostream &os, int indent, int depth) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/** Every registered statistic as an object of name -> value. */
Json toJson(const StatGroup &stats);

} // namespace cmt

#endif // CMT_SUPPORT_JSON_H
