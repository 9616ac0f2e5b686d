/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic() is for internal invariant violations (bugs in this library):
 * it prints a location-stamped message and aborts. fatal() is for user
 * errors (bad configuration, malformed input): it throws a catchable
 * DavfError (util/error.hh) so long-running campaigns can skip the
 * offending unit of work instead of dying; a CLI entry point that wants
 * the classic print-and-exit behaviour catches it at main() (see
 * guardedMain below). davf_throw() is fatal() with an explicit
 * ErrorKind.
 */

#ifndef DAVF_UTIL_LOGGING_HH
#define DAVF_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "util/error.hh"

namespace davf {

/** Formats a message from stream-style arguments. */
template <typename... Args>
std::string
formatMessage(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] inline void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] inline void
fatalImpl(const char *file, int line, const std::string &msg)
{
    throw DavfError(ErrorKind::BadInput, msg, file, line);
}

inline void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

/**
 * Run a CLI body, converting an escaped DavfError into the classic
 * "fatal: message" + nonzero exit. Keeps tools' observable behaviour
 * while the library itself stays exception-based.
 */
template <typename Fn>
int
guardedMain(Fn &&body)
{
    try {
        return body();
    } catch (const DavfError &error) {
        if (error.file()) {
            std::fprintf(stderr, "fatal: %s (%s:%d)\n", error.what(),
                         error.file(), error.line());
        } else {
            std::fprintf(stderr, "fatal: %s\n", error.what());
        }
        return 1;
    }
}

} // namespace davf

/** Abort with a message: an internal invariant of the library is broken. */
#define davf_panic(...) \
    ::davf::panicImpl(__FILE__, __LINE__, ::davf::formatMessage(__VA_ARGS__))

/** Throw a DavfError: the user supplied invalid input or configuration. */
#define davf_fatal(...) \
    ::davf::fatalImpl(__FILE__, __LINE__, ::davf::formatMessage(__VA_ARGS__))

/** Throw a DavfError with an explicit ErrorKind. */
#define davf_throw(kind, ...)                                               \
    throw ::davf::DavfError((kind),                                         \
                            ::davf::formatMessage(__VA_ARGS__), __FILE__,   \
                            __LINE__)

/** Print a non-fatal warning. */
#define davf_warn(...) \
    ::davf::warnImpl(__FILE__, __LINE__, ::davf::formatMessage(__VA_ARGS__))

/** Assert an internal invariant; active in all build types. */
#define davf_assert(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::davf::panicImpl(__FILE__, __LINE__,                           \
                ::davf::formatMessage("assertion failed: " #cond " ",      \
                                      ##__VA_ARGS__));                     \
        }                                                                   \
    } while (0)

#endif // DAVF_UTIL_LOGGING_HH
