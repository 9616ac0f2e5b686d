/**
 * @file
 * The recoverable error taxonomy.
 *
 * Two failure classes exist in this library (see docs/ROBUSTNESS.md):
 *
 *  - **Invariant bugs** — the library's own state is broken. These go
 *    through davf_panic()/davf_assert() (logging.hh) and abort(): there
 *    is nothing a caller can do, and a core dump is the right artifact.
 *  - **Recoverable errors** — bad user input or environment trouble
 *    (unknown structure name, malformed workload text, out-of-range
 *    delay, unwritable file, an injection exceeding its wall-clock
 *    budget). These throw DavfError, carrying a machine-readable
 *    ErrorKind, so a campaign can skip the offending unit of work and
 *    keep going instead of losing hours of sweep to exit(1).
 *
 * Result<T> is the non-throwing companion for paths where an error is
 * an expected outcome rather than an exception — e.g. parsing a
 * store record that may be from an older version.
 */

#ifndef DAVF_UTIL_ERROR_HH
#define DAVF_UTIL_ERROR_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace davf {

/** Machine-readable classification of a recoverable error. */
enum class ErrorKind : uint8_t {
    BadArgument,       ///< Malformed flag/config/API argument.
    NotFound,          ///< Unknown benchmark/structure/file name.
    BadInput,          ///< Malformed user-supplied input text.
    OutOfRange,        ///< Numeric parameter outside the valid domain.
    Io,                ///< File open/read/write failure.
    Timeout,           ///< Work exceeded its wall-clock budget.
    ExcessiveFailures, ///< Too many injections failed; result untrusted.
    Internal,          ///< Escaped lower-level failure, wrapped.
};

/** Stable lowercase name of @p kind (used in skip tallies and logs). */
std::string_view errorKindName(ErrorKind kind);

/** A recoverable library error. See the file comment for the taxonomy. */
class DavfError : public std::runtime_error
{
  public:
    DavfError(ErrorKind kind, const std::string &message,
              const char *file = nullptr, int line = 0)
        : std::runtime_error(message), errKind(kind), srcFile(file),
          srcLine(line)
    {}

    ErrorKind kind() const noexcept { return errKind; }

    /**
     * Where davf_throw()/davf_fatal() raised it (null otherwise). Not
     * part of what(): the message travels into reports, CSVs and
     * replies, which must not depend on the build directory. Only a
     * line a human reads on stderr (guardedMain's "fatal:") adds it.
     */
    const char *file() const noexcept { return srcFile; }
    int line() const noexcept { return srcLine; }

  private:
    ErrorKind errKind;
    const char *srcFile;
    int srcLine;
};

/**
 * Value-or-error, for paths where failure is an expected outcome.
 * Construct with Result<T>::Ok(value) or Result<T>::Err(kind, message).
 */
template <typename T>
class Result
{
  public:
    static Result
    Ok(T value)
    {
        Result result;
        result.val = std::move(value);
        return result;
    }

    static Result
    Err(ErrorKind kind, std::string message)
    {
        Result result;
        result.err.emplace(kind, std::move(message));
        return result;
    }

    static Result
    Err(const DavfError &error)
    {
        Result result;
        result.err.emplace(error);
        return result;
    }

    bool ok() const { return val.has_value(); }
    explicit operator bool() const { return ok(); }

    /** The held value; throws the stored (or an Internal) error if !ok(). */
    T &
    value()
    {
        if (!val)
            throw err ? *err
                      : DavfError(ErrorKind::Internal,
                                  "value() on an empty Result");
        return *val;
    }

    const T &
    value() const
    {
        return const_cast<Result *>(this)->value();
    }

    /** The held error (Internal placeholder if ok()). */
    const DavfError &
    error() const
    {
        static const DavfError none(ErrorKind::Internal, "no error");
        return err ? *err : none;
    }

  private:
    Result() = default;

    std::optional<T> val;
    std::optional<DavfError> err;
};

} // namespace davf

#endif // DAVF_UTIL_ERROR_HH
