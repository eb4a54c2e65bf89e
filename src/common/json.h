/**
 * @file
 * Minimal JSON emission helpers. The telemetry layer writes three
 * machine-readable formats (metrics JSON, JSONL trace events, Chrome
 * trace_event) and all of them need correct string escaping — a
 * counter named "refs 0" or an engine called "cpack\\128" must not
 * produce invalid output. No parsing, no DOM: just escape + a small
 * writer that keeps commas and nesting straight.
 *
 * The writer itself is allocation-free: nesting state is an inline
 * 64-level bit stack and strings are escaped straight into the
 * stream, so constructing a JsonWriter per trace event keeps the
 * emit path inside the no-alloc discipline (trace.cc). jsonEscape()
 * remains for callers that want an escaped std::string.
 */

#ifndef CABLE_COMMON_JSON_H
#define CABLE_COMMON_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

namespace cable
{

/** Escapes @p s for inclusion inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

/**
 * Streaming JSON writer. Usage:
 *
 *   JsonWriter jw(os);
 *   jw.beginObject();
 *   jw.field("name", "mcf");
 *   jw.key("results"); jw.beginObject(); ... jw.endObject();
 *   jw.endObject();
 *
 * Values are emitted immediately; the writer only tracks whether a
 * comma is due at each nesting level (up to 64 levels — far beyond
 * any document this tree writes). Doubles that are NaN or infinite
 * (e.g. a ratio whose denominator never moved) are emitted as null,
 * which is what "n/a" means in JSON.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    void
    beginObject()
    {
        sep();
        os_ << "{";
        push();
    }

    void
    endObject()
    {
        os_ << "}";
        pop();
    }

    void
    beginArray()
    {
        sep();
        os_ << "[";
        push();
    }

    void
    endArray()
    {
        os_ << "]";
        pop();
    }

    /** Emits the key; the next begin/value call supplies the value. */
    void
    key(const char *k)
    {
        sep();
        os_ << "\"";
        writeEscaped(k, std::strlen(k));
        os_ << "\":";
        pending_key_ = true;
    }

    void
    key(const std::string &k)
    {
        sep();
        os_ << "\"";
        writeEscaped(k.data(), k.size());
        os_ << "\":";
        pending_key_ = true;
    }

    void
    value(const std::string &v)
    {
        sep();
        os_ << "\"";
        writeEscaped(v.data(), v.size());
        os_ << "\"";
    }

    void
    value(const char *v)
    {
        sep();
        os_ << "\"";
        writeEscaped(v, std::strlen(v));
        os_ << "\"";
    }

    void
    value(std::uint64_t v)
    {
        sep();
        os_ << v;
    }

    void
    value(std::int64_t v)
    {
        sep();
        os_ << v;
    }

    void
    value(unsigned v)
    {
        value(static_cast<std::uint64_t>(v));
    }

    void
    value(int v)
    {
        value(static_cast<std::int64_t>(v));
    }

    void
    value(bool v)
    {
        sep();
        os_ << (v ? "true" : "false");
    }

    void
    value(double v)
    {
        sep();
        if (std::isnan(v) || std::isinf(v)) {
            os_ << "null";
            return;
        }
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        os_ << buf;
    }

    void
    null()
    {
        sep();
        os_ << "null";
    }

    /** Emits @p json, a value another writer already serialized. */
    void
    rawValue(const std::string &json)
    {
        sep();
        os_ << json;
    }

    template <typename T>
    void
    field(const char *k, const T &v)
    {
        key(k);
        value(v);
    }

    template <typename T>
    void
    field(const std::string &k, const T &v)
    {
        key(k);
        value(v);
    }

    void
    nullField(const char *k)
    {
        key(k);
        null();
    }

    void
    nullField(const std::string &k)
    {
        key(k);
        null();
    }

  private:
    void
    writeEscaped(const char *s, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            unsigned char c = static_cast<unsigned char>(s[i]);
            switch (c) {
            case '"': os_ << "\\\""; break;
            case '\\': os_ << "\\\\"; break;
            case '\n': os_ << "\\n"; break;
            case '\r': os_ << "\\r"; break;
            case '\t': os_ << "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    os_ << buf;
                } else {
                    os_ << static_cast<char>(c);
                }
            }
        }
    }

    void
    sep()
    {
        if (pending_key_) {
            // A value directly follows its key; no comma.
            pending_key_ = false;
            return;
        }
        if (depth_ > 0 && depth_ <= 64) {
            std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
            if (comma_bits_ & bit)
                os_ << ",";
            comma_bits_ |= bit;
        }
    }

    void
    push()
    {
        // Comma tracking covers the first 64 levels; no document in
        // this tree nests past ~6. Depth itself stays exact so
        // push/pop remain balanced regardless.
        ++depth_;
        if (depth_ <= 64)
            comma_bits_ &= ~(std::uint64_t{1} << (depth_ - 1));
    }

    void
    pop()
    {
        if (depth_ > 0)
            --depth_;
    }

    std::ostream &os_;
    std::uint64_t comma_bits_ = 0;
    unsigned depth_ = 0;
    bool pending_key_ = false;
};

} // namespace cable

#endif // CABLE_COMMON_JSON_H
