/**
 * @file
 * Child-process plumbing for the supervised campaign executor.
 *
 * A Subprocess is a fork/exec'd worker wired to the parent by two
 * pipes (parent->child on the child's stdin, child->parent on the
 * child's stdout; stderr is inherited). Messages travel as
 * **length-prefixed frames** (4-byte little-endian length + payload),
 * so a reader never sees a torn message and binary payloads are safe.
 *
 * The parent side reads with a wall-clock deadline (poll(2)), decodes
 * exit status vs. termination signal, captures rusage (peak RSS, CPU
 * time) from wait4(2), and can escalate SIGTERM -> SIGKILL on a wedged
 * child. spawn() can apply an address-space rlimit in the child so a
 * leaking worker dies with std::bad_alloc instead of OOM-killing the
 * machine.
 *
 * The free functions writeFrameFd()/readFrameFd() are the child-side
 * half of the protocol, usable on plain file descriptors. FrameLink is
 * the transport-neutral face of a frame stream (pipes or a socket) that
 * the shard link (campaign/shard_link.hh) speaks through, and
 * readFrameTimed() the one deadline-aware reader behind every link.
 */

#ifndef DAVF_UTIL_SUBPROCESS_HH
#define DAVF_UTIL_SUBPROCESS_HH

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace davf {

/** Largest accepted frame payload; bigger prefixes mean a corrupt or
 *  hostile stream and are rejected with DavfError{BadInput}. */
inline constexpr size_t kMaxFrameBytes = 64u << 20;

/** How Subprocess::spawn sets the child up. */
struct SpawnOptions
{
    /** RLIMIT_AS cap in MiB applied in the child; 0 = unlimited.
     *  Note: incompatible with AddressSanitizer's shadow mappings. */
    size_t memLimitMb = 0;
};

/** Decoded wait4() status plus resource usage. */
struct ExitStatus
{
    bool exited = false;   ///< Normal exit; @c code is valid.
    int code = 0;
    bool signaled = false; ///< Killed by a signal; @c signal is valid.
    int signal = 0;

    long maxRssKb = 0;     ///< Peak resident set (ru_maxrss).
    double userSec = 0.0;  ///< CPU seconds in user mode.
    double sysSec = 0.0;   ///< CPU seconds in kernel mode.

    /** Human-readable one-liner: "exited with code 3" etc. */
    std::string describe() const;
};

/** Append one length-prefixed frame to @p fd (throws DavfError{Io}). */
void writeFrameFd(int fd, std::string_view payload);

/**
 * Blocking frame read from @p fd: readFrameTimed() without a deadline.
 * Consumes exactly one frame, so frames the peer sent after it stay
 * unread for the next call. Returns false on a clean EOF before any
 * frame byte; throws DavfError{BadInput} on a torn or oversized frame
 * and DavfError{Io} on a read error.
 */
bool readFrameFd(int fd, std::string &out);

/**
 * A bidirectional stream of length-prefixed frames: a worker's pipes, a
 * node's socket, or a worker's own stdin/stdout.
 */
class FrameLink
{
  public:
    enum class ReadStatus : uint8_t {
        Frame,   ///< A complete frame was read into @c out.
        Eof,     ///< The peer closed its end between frames.
        Timeout, ///< No complete frame arrived before the deadline.
    };

    virtual ~FrameLink() = default;

    /** Send one frame (throws DavfError{Io} if the peer is gone). */
    virtual void send(std::string_view payload) = 0;

    /**
     * Read one frame with a wall-clock budget of @p timeout_ms (<= 0
     * polls once without blocking). Partial frames survive a Timeout.
     * Throws DavfError{BadInput} on a torn (EOF mid-frame) or oversized
     * frame, the latter rejected before allocating, and DavfError{Io}
     * on a read error.
     */
    virtual ReadStatus read(std::string &out, double timeout_ms) = 0;
};

/**
 * The frame reader behind every FrameLink: read @p fd into
 * @p rx_buffer until it holds a whole frame (moved into @p out), the
 * peer closes, or @p timeout_ms passes. Never reads past the frame's
 * end, so @p rx_buffer holds at most one partial frame. Statuses and
 * errors as FrameLink::read.
 */
FrameLink::ReadStatus readFrameTimed(int fd, std::string &rx_buffer,
                                     std::string &out, double timeout_ms);

/** A FrameLink over two borrowed descriptors (a worker's stdio). */
class FdFrameLink final : public FrameLink
{
  public:
    FdFrameLink(int read_fd, int write_fd)
        : readFd(read_fd), writeFd(write_fd)
    {}

    void send(std::string_view payload) override
    {
        writeFrameFd(writeFd, payload);
    }

    ReadStatus read(std::string &out, double timeout_ms) override
    {
        return readFrameTimed(readFd, rxBuffer, out, timeout_ms);
    }

  private:
    int readFd;
    int writeFd;
    std::string rxBuffer; ///< Bytes read but not yet framed.
};

/** A supervised child process (see file comment), framed over its
 *  stdin/stdout pipes. */
class Subprocess final : public FrameLink
{
  public:
    Subprocess() = default;
    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;

    /** SIGKILLs and reaps a still-running child. */
    ~Subprocess() override;

    /** Absolute path of the running executable (/proc/self/exe). */
    static std::string selfExePath();

    /**
     * Fork/exec @p argv (argv[0] is the executable path; PATH is not
     * searched). Throws DavfError{Io} on failure. The child's stdin and
     * stdout become the IPC pipes; stderr is inherited.
     */
    void spawn(const std::vector<std::string> &argv,
               const SpawnOptions &options = {});

    /** A child has been spawned and not yet reaped. */
    bool running() const { return childPid > 0 && !status; }

    pid_t pid() const { return childPid; }

    /** Send one frame to the child (throws DavfError{Io} if it died). */
    void send(std::string_view payload) override;

    /** Read one frame from the child: Eof means it closed its end (it
     *  exited or crashed) between frames. */
    ReadStatus read(std::string &out, double timeout_ms) override;

    /** Close the write end: EOF on the child's stdin. */
    void closeWrite();

    /** Blocking reap; returns the decoded status (cached once reaped). */
    ExitStatus wait();

    /**
     * SIGTERM, wait up to @p grace_ms for exit, then SIGKILL and reap.
     * No-op (returns the cached status) if already reaped.
     */
    ExitStatus terminate(double grace_ms);

  private:
    void closeFds();

    pid_t childPid = -1;
    int toChild = -1;
    int fromChild = -1;
    std::string rxBuffer; ///< Bytes read but not yet framed.
    std::optional<ExitStatus> status;
};

} // namespace davf

#endif // DAVF_UTIL_SUBPROCESS_HH
