#include "subprocess.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/clock.hh"
#include "util/logging.hh"

namespace davf {

namespace {

void
decodeRusage(const struct rusage &ru, ExitStatus &status)
{
    status.maxRssKb = ru.ru_maxrss;
    status.userSec = static_cast<double>(ru.ru_utime.tv_sec)
        + static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    status.sysSec = static_cast<double>(ru.ru_stime.tv_sec)
        + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

ExitStatus
decodeWait(int wstatus, const struct rusage &ru)
{
    ExitStatus status;
    if (WIFEXITED(wstatus)) {
        status.exited = true;
        status.code = WEXITSTATUS(wstatus);
    } else if (WIFSIGNALED(wstatus)) {
        status.signaled = true;
        status.signal = WTERMSIG(wstatus);
    }
    decodeRusage(ru, status);
    return status;
}

void
closeQuiet(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

std::string
ExitStatus::describe() const
{
    if (exited)
        return "exited with code " + std::to_string(code);
    if (signaled) {
        const char *name = ::strsignal(signal);
        return "killed by signal " + std::to_string(signal) + " ("
            + (name ? name : "?") + ")";
    }
    return "in unknown state";
}

void
writeFrameFd(int fd, std::string_view payload)
{
    davf_assert(payload.size() <= kMaxFrameBytes,
                "frame payload too large: ", payload.size());
    uint8_t header[4];
    const auto size = static_cast<uint32_t>(payload.size());
    header[0] = static_cast<uint8_t>(size);
    header[1] = static_cast<uint8_t>(size >> 8);
    header[2] = static_cast<uint8_t>(size >> 16);
    header[3] = static_cast<uint8_t>(size >> 24);

    std::string wire(reinterpret_cast<const char *>(header), 4);
    wire.append(payload);
    size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n =
            ::write(fd, wire.data() + sent, wire.size() - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            davf_throw(ErrorKind::Io, "frame write failed: ",
                       std::strerror(errno));
        }
        sent += static_cast<size_t>(n);
    }
}

namespace {

/** Decode a 4-byte little-endian length prefix. */
uint32_t
frameLength(const std::string &buffer)
{
    return static_cast<uint32_t>(static_cast<uint8_t>(buffer[0]))
        | static_cast<uint32_t>(static_cast<uint8_t>(buffer[1])) << 8
        | static_cast<uint32_t>(static_cast<uint8_t>(buffer[2])) << 16
        | static_cast<uint32_t>(static_cast<uint8_t>(buffer[3])) << 24;
}

/**
 * Pop one complete frame out of @p buffer if present. The length
 * prefix is checked before any payload allocation, so a hostile prefix
 * cannot balloon memory: it throws DavfError{BadInput}.
 */
bool
popFrame(std::string &buffer, std::string &out)
{
    if (buffer.size() < 4)
        return false;
    const uint32_t length = frameLength(buffer);
    if (length > kMaxFrameBytes) {
        davf_throw(ErrorKind::BadInput, "frame length ", length,
                   " exceeds the ", kMaxFrameBytes,
                   "-byte ceiling (corrupt or hostile peer)");
    }
    if (buffer.size() < 4u + length)
        return false;
    out.assign(buffer, 4, length);
    buffer.erase(0, 4u + length);
    return true;
}

} // namespace

FrameLink::ReadStatus
readFrameTimed(int fd, std::string &rx_buffer, std::string &out,
               double timeout_ms)
{
    using ReadStatus = FrameLink::ReadStatus;
    const double deadline = nowMs() + std::max(timeout_ms, 0.0);
    for (;;) {
        if (popFrame(rx_buffer, out))
            return ReadStatus::Frame;

        const double remaining = deadline - nowMs();
        if (remaining <= 0.0 && timeout_ms > 0.0)
            return ReadStatus::Timeout;

        pollfd pfd = {fd, POLLIN, 0};
        const int rc = ::poll(
            &pfd, 1,
            timeout_ms <= 0.0
                ? 0
                : static_cast<int>(std::min(std::max(remaining, 1.0),
                                            double(1 << 30))));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            davf_throw(ErrorKind::Io, "poll: ", std::strerror(errno));
        }
        if (rc == 0)
            return ReadStatus::Timeout;

        // Read no further than the end of this frame: the bytes after
        // it belong to the next read, which need not share this buffer
        // (readFrameFd keeps none between calls).
        const size_t want = rx_buffer.size() < 4
            ? 4 - rx_buffer.size()
            : 4 + frameLength(rx_buffer) - rx_buffer.size();
        char chunk[65536];
        const ssize_t got =
            ::read(fd, chunk, std::min(want, sizeof chunk));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            davf_throw(ErrorKind::Io, "frame read failed: ",
                       std::strerror(errno));
        }
        if (got == 0) {
            if (!rx_buffer.empty()) {
                davf_throw(ErrorKind::BadInput,
                           "peer closed the connection mid-frame (",
                           rx_buffer.size(), " stray bytes)");
            }
            return ReadStatus::Eof;
        }
        rx_buffer.append(chunk, static_cast<size_t>(got));
    }
}

bool
readFrameFd(int fd, std::string &out)
{
    std::string buffer;
    FrameLink::ReadStatus status;
    while ((status = readFrameTimed(fd, buffer, out, 60000.0))
           == FrameLink::ReadStatus::Timeout) {
    }
    return status == FrameLink::ReadStatus::Frame;
}

Subprocess::~Subprocess()
{
    if (running()) {
        ::kill(childPid, SIGKILL);
        wait();
    }
    closeFds();
}

std::string
Subprocess::selfExePath()
{
    char buffer[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
    if (n <= 0) {
        davf_throw(ErrorKind::Io, "cannot resolve /proc/self/exe: ",
                   std::strerror(errno));
    }
    return std::string(buffer, static_cast<size_t>(n));
}

void
Subprocess::closeFds()
{
    closeQuiet(toChild);
    closeQuiet(fromChild);
}

void
Subprocess::spawn(const std::vector<std::string> &argv,
                  const SpawnOptions &options)
{
    davf_assert(!running(), "spawn() while a child is still running");
    davf_assert(!argv.empty(), "spawn() needs an argv[0]");
    closeFds();
    status.reset();
    rxBuffer.clear();

    int down[2]; // parent -> child (child stdin)
    int up[2];   // child -> parent (child stdout)
    if (::pipe2(down, O_CLOEXEC) != 0) {
        davf_throw(ErrorKind::Io, "pipe2 failed: ",
                   std::strerror(errno));
    }
    if (::pipe2(up, O_CLOEXEC) != 0) {
        const int saved = errno;
        ::close(down[0]);
        ::close(down[1]);
        davf_throw(ErrorKind::Io, "pipe2 failed: ",
                   std::strerror(saved));
    }

    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        const int saved = errno;
        for (int fd : {down[0], down[1], up[0], up[1]})
            ::close(fd);
        davf_throw(ErrorKind::Io, "fork failed: ",
                   std::strerror(saved));
    }

    if (pid == 0) {
        // Child: pipes onto stdin/stdout (dup2 clears O_CLOEXEC), the
        // optional address-space cap, then exec. Only async-signal-safe
        // calls between fork and exec.
        if (::dup2(down[0], STDIN_FILENO) < 0
            || ::dup2(up[1], STDOUT_FILENO) < 0)
            ::_exit(127);
        if (options.memLimitMb != 0) {
            struct rlimit limit;
            limit.rlim_cur = limit.rlim_max =
                static_cast<rlim_t>(options.memLimitMb) << 20;
            ::setrlimit(RLIMIT_AS, &limit);
        }
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }

    ::close(down[0]);
    ::close(up[1]);
    childPid = pid;
    toChild = down[1];
    fromChild = up[0];
}

void
Subprocess::send(std::string_view payload)
{
    davf_assert(toChild >= 0, "send() without a spawned child");
    writeFrameFd(toChild, payload);
}

Subprocess::ReadStatus
Subprocess::read(std::string &out, double timeout_ms)
{
    davf_assert(fromChild >= 0, "read() without a spawned child");
    return readFrameTimed(fromChild, rxBuffer, out, timeout_ms);
}

void
Subprocess::closeWrite()
{
    closeQuiet(toChild);
}

ExitStatus
Subprocess::wait()
{
    if (status)
        return *status;
    davf_assert(childPid > 0, "wait() without a spawned child");
    int wstatus = 0;
    struct rusage ru = {};
    for (;;) {
        const pid_t got = ::wait4(childPid, &wstatus, 0, &ru);
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0) {
            davf_throw(ErrorKind::Io, "wait4 failed: ",
                       std::strerror(errno));
        }
        break;
    }
    status = decodeWait(wstatus, ru);
    closeFds();
    return *status;
}

ExitStatus
Subprocess::terminate(double grace_ms)
{
    if (status)
        return *status;
    davf_assert(childPid > 0, "terminate() without a spawned child");

    ::kill(childPid, SIGTERM);
    const double deadline = nowMs() + std::max(grace_ms, 0.0);
    for (;;) {
        int wstatus = 0;
        struct rusage ru = {};
        const pid_t got = ::wait4(childPid, &wstatus, WNOHANG, &ru);
        if (got == childPid) {
            status = decodeWait(wstatus, ru);
            closeFds();
            return *status;
        }
        if (got < 0 && errno != EINTR) {
            davf_throw(ErrorKind::Io, "wait4 failed: ",
                       std::strerror(errno));
        }
        if (nowMs() >= deadline)
            break;
        ::usleep(2000);
    }

    ::kill(childPid, SIGKILL);
    return wait();
}

} // namespace davf
