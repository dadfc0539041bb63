#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/logging.h"
#include "support/stats.h"

namespace cmt
{

namespace
{

/** Shortest decimal form that strtod reads back to the same double. */
std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no inf/nan
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
writeString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\b': os << "\\b"; break;
        case '\f': os << "\\f"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << ch;
            }
        }
    }
    os << '"';
}

/** Recursive-descent parser over a raw byte range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    bool
    run(Json *out)
    {
        skipSpace();
        if (!value(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_ && error_->empty()) {
            std::ostringstream os;
            os << what << " at offset " << pos_;
            *error_ = os.str();
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word, Json v, Json *out)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return fail("invalid literal");
        pos_ += n;
        *out = std::move(v);
        return true;
    }

    bool
    string(std::string *out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out->push_back('"'); break;
            case '\\': out->push_back('\\'); break;
            case '/': out->push_back('/'); break;
            case 'b': out->push_back('\b'); break;
            case 'f': out->push_back('\f'); break;
            case 'n': out->push_back('\n'); break;
            case 'r': out->push_back('\r'); break;
            case 't': out->push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // UTF-8 encode the BMP code point (surrogate pairs
                // are passed through as two 3-byte sequences; the
                // writer never emits them).
                if (code < 0x80) {
                    out->push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out->push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    out->push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out->push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    out->push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out->push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(Json *out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected number");
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number");
        *out = Json(v);
        return true;
    }

    bool
    value(Json *out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
        case 'n': return literal("null", Json(), out);
        case 't': return literal("true", Json(true), out);
        case 'f': return literal("false", Json(false), out);
        case '"': {
            std::string s;
            if (!string(&s))
                return false;
            *out = Json(std::move(s));
            return true;
        }
        case '[': {
            ++pos_;
            *out = Json::array();
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                Json element;
                if (!value(&element))
                    return false;
                out->push(std::move(element));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        case '{': {
            ++pos_;
            *out = Json::object();
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipSpace();
                std::string key;
                if (!string(&key))
                    return false;
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                Json member;
                if (!value(&member))
                    return false;
                out->set(key, std::move(member));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        default:
            return number(out);
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::array()
{
    Json v;
    v.type_ = Type::kArray;
    return v;
}

Json
Json::object()
{
    Json v;
    v.type_ = Type::kObject;
    return v;
}

std::size_t
Json::size() const
{
    if (type_ == Type::kArray)
        return array_.size();
    if (type_ == Type::kObject)
        return object_.size();
    return 0;
}

Json &
Json::push(Json v)
{
    if (type_ == Type::kNull)
        type_ = Type::kArray;
    cmt_assert(type_ == Type::kArray);
    array_.push_back(std::move(v));
    return *this;
}

const Json &
Json::at(std::size_t i) const
{
    if (type_ != Type::kArray || i >= array_.size())
        cmt_fatal("json: array index %zu out of range", i);
    return array_[i];
}

Json &
Json::set(const std::string &key, Json v)
{
    if (type_ == Type::kNull)
        type_ = Type::kObject;
    cmt_assert(type_ == Type::kObject);
    for (auto &member : object_) {
        if (member.first == key) {
            member.second = std::move(v);
            return *this;
        }
    }
    object_.emplace_back(key, std::move(v));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::kObject)
        return nullptr;
    for (const auto &member : object_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

bool
Json::contains(const std::string &key) const
{
    return find(key) != nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *v = find(key);
    if (!v)
        cmt_fatal("json: missing member '%s'", key.c_str());
    return *v;
}

void
Json::writeIndented(std::ostream &os, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent <= 0)
            return;
        os << '\n';
        for (int i = 0; i < indent * d; ++i)
            os << ' ';
    };

    switch (type_) {
    case Type::kNull:
        os << "null";
        break;
    case Type::kBool:
        os << (bool_ ? "true" : "false");
        break;
    case Type::kNumber:
        os << formatNumber(num_);
        break;
    case Type::kString:
        writeString(os, str_);
        break;
    case Type::kArray:
        if (array_.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                os << ',';
            newline(depth + 1);
            array_[i].writeIndented(os, indent, depth + 1);
        }
        newline(depth);
        os << ']';
        break;
    case Type::kObject:
        if (object_.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                os << ',';
            newline(depth + 1);
            writeString(os, object_[i].first);
            os << (indent > 0 ? ": " : ":");
            object_[i].second.writeIndented(os, indent, depth + 1);
        }
        newline(depth);
        os << '}';
        break;
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
    if (indent > 0)
        os << '\n';
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

bool
Json::parse(const std::string &text, Json *out, std::string *error)
{
    if (error)
        error->clear();
    Parser parser(text, error);
    return parser.run(out);
}

Json
toJson(const StatGroup &stats)
{
    Json obj = Json::object();
    stats.forEachCounter([&](const Counter &c) {
        obj.set(c.name(), Json(c.value()));
    });
    stats.forEachDistribution([&](const Distribution &d) {
        Json entry = Json::object();
        entry.set("count", Json(d.count()));
        entry.set("mean", Json(d.mean()));
        entry.set("min", Json(d.min()));
        entry.set("max", Json(d.max()));
        obj.set(d.name(), std::move(entry));
    });
    return obj;
}

} // namespace cmt
