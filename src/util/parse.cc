#include "parse.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>

#include "util/logging.hh"

namespace davf {

uint64_t
parseU64Strict(const std::string &text, const std::string &what)
{
    if (text.empty() || text[0] < '0' || text[0] > '9') {
        davf_throw(ErrorKind::BadArgument, what, " expects an unsigned "
                   "integer, got '", text, "'");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size()) {
        davf_throw(ErrorKind::BadArgument, what, ": trailing characters "
                   "after number in '", text, "'");
    }
    if (errno == ERANGE) {
        davf_throw(ErrorKind::BadArgument, what, ": '", text,
                   "' overflows a 64-bit unsigned integer");
    }
    return static_cast<uint64_t>(value);
}

uint64_t
parseU64InRange(const std::string &text, const std::string &what,
                uint64_t lo, uint64_t hi)
{
    const uint64_t value = parseU64Strict(text, what);
    if (value < lo || value > hi) {
        davf_throw(ErrorKind::BadArgument, what, ": ", value,
                   " is outside the valid range [", lo, ", ", hi, "]");
    }
    return value;
}

double
parseDoubleStrict(const std::string &text, const std::string &what)
{
    if (text.empty() || text[0] == ' ' || text[0] == '\t') {
        davf_throw(ErrorKind::BadArgument, what,
                   " expects a number, got '", text, "'");
    }
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
        davf_throw(ErrorKind::BadArgument, what, ": trailing characters "
                   "after number in '", text, "'");
    }
    if (errno == ERANGE || !std::isfinite(value)) {
        davf_throw(ErrorKind::BadArgument, what, ": '", text,
                   "' is not a finite number");
    }
    return value;
}

std::string
hexDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return buffer;
}

bool
textToDouble(const std::string &text, double &out)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    out = std::strtod(begin, &end);
    return end == begin + text.size() && !text.empty();
}

bool
textToPositiveHexDouble(const std::string &text, double &out)
{
    const bool hex = text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0;
    return hex && textToDouble(text, out) && std::isfinite(out)
        && out > 0.0;
}

bool
readDouble(std::istream &is, double &out)
{
    std::string text;
    return (is >> text) && textToDouble(text, out);
}

} // namespace davf
