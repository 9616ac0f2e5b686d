/**
 * @file
 * Strict numeric parsing for CLI flags and wire protocols.
 *
 * The libc conversions (`strtoull`, `atof`, ...) accept trailing
 * garbage ("4x" parses as 4) and silently saturate or wrap on overflow
 * ("99999999999999999999" becomes ULLONG_MAX), which turns a typo'd
 * flag into a silently different campaign. Every flag value in the
 * tools goes through these helpers instead: the whole token must be a
 * number, the number must fit, and anything else throws
 * ErrorKind::BadArgument naming the offending text.
 */

#ifndef DAVF_UTIL_PARSE_HH
#define DAVF_UTIL_PARSE_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace davf {

/**
 * Parse @p text as a base-10 unsigned 64-bit integer. The entire token
 * must be digits (no sign, no whitespace, no trailing characters) and
 * the value must fit in uint64_t. @p what names the flag in the error
 * message ("--workers").
 */
uint64_t parseU64Strict(const std::string &text, const std::string &what);

/**
 * parseU64Strict() plus an inclusive range check; @p lo <= value <= @p hi
 * or ErrorKind::BadArgument.
 */
uint64_t parseU64InRange(const std::string &text, const std::string &what,
                         uint64_t lo, uint64_t hi);

/**
 * Parse @p text as a finite double. The entire token must parse (an
 * optional sign, digits, fraction, exponent — whatever strtod accepts,
 * but with nothing left over) and the result must be finite; "nan",
 * "inf" and overflowing exponents are rejected.
 */
double parseDoubleStrict(const std::string &text, const std::string &what);

/**
 * @name Bit-exact double text
 * The C hexfloat ("%a") form every store record, shard, quarantine,
 * and protocol token uses for doubles, so a value survives the round trip
 * bit for bit.
 */
/// @{
std::string hexDouble(double value);

/** Parse a whole-token double (hexfloat or decimal); false on junk. */
bool textToDouble(const std::string &text, double &out);

/**
 * textToDouble() restricted to a positive, finite hexfloat ("0x"
 * prefix, no sign): the form a clock period travels in between
 * processes. False on anything else.
 */
bool textToPositiveHexDouble(const std::string &text, double &out);

/** Read the next token of @p is with textToDouble. */
bool readDouble(std::istream &is, double &out);
/// @}

} // namespace davf

#endif // DAVF_UTIL_PARSE_HH
