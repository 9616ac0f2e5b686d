#include "frame.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "util/logging.hh"
#include "util/parse.hh"
#include "util/subprocess.hh"

namespace davf::net {

namespace {

/** Resolve a numeric-or-name IPv4 host (throws DavfError{Io}). */
sockaddr_in
tcpAddress(const std::string &host, uint16_t port)
{
    addrinfo hints = {};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *info = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &info);
    if (rc != 0 || info == nullptr) {
        davf_throw(ErrorKind::Io, "cannot resolve host '", host,
                   "': ", ::gai_strerror(rc));
    }
    sockaddr_in addr = {};
    std::memcpy(&addr, info->ai_addr,
                std::min(sizeof addr, size_t(info->ai_addrlen)));
    ::freeaddrinfo(info);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    return addr;
}

} // namespace

void
parseHostPort(const std::string &text, std::string &host, uint16_t &port)
{
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0
        || colon + 1 >= text.size()) {
        davf_throw(ErrorKind::BadArgument, "expected HOST:PORT, got '",
                   text, "'");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long value =
        std::strtoul(text.c_str() + colon + 1, &end, 10);
    if (errno != 0 || *end != '\0' || value > 65535) {
        davf_throw(ErrorKind::BadArgument, "bad port in '", text, "'");
    }
    host = text.substr(0, colon);
    port = static_cast<uint16_t>(value);
}

ListenSocket
listenTcp(const std::string &host, uint16_t port)
{
    const sockaddr_in addr = tcpAddress(host, port);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        davf_throw(ErrorKind::Io, "socket: ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr), sizeof addr)
        != 0) {
        const int saved = errno;
        ::close(fd);
        davf_throw(ErrorKind::Io, "bind('", host, ":", port,
                   "'): ", std::strerror(saved));
    }
    if (::listen(fd, 64) != 0) {
        const int saved = errno;
        ::close(fd);
        davf_throw(ErrorKind::Io, "listen('", host, ":", port,
                   "'): ", std::strerror(saved));
    }
    ListenSocket sock;
    sock.fd = fd;
    sockaddr_in bound = {};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len)
        == 0) {
        sock.port = ntohs(bound.sin_port);
    } else {
        sock.port = port;
    }
    return sock;
}

int
acceptTcp(int listen_fd)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0)
            return fd;
        if (errno == EINTR || errno == ECONNABORTED)
            continue;
        davf_throw(ErrorKind::Io, "accept: ", std::strerror(errno));
    }
}

int
connectTcp(const std::string &host, uint16_t port, double timeout_ms)
{
    const sockaddr_in addr = tcpAddress(host, port);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        davf_throw(ErrorKind::Io, "socket: ", std::strerror(errno));

    auto fail = [&](const std::string &detail) {
        const int saved = errno;
        ::close(fd);
        davf_throw(ErrorKind::Io, "connect('", host, ":", port, "'): ",
                   detail.empty() ? std::strerror(saved) : detail);
    };

    if (timeout_ms <= 0.0) {
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr)
            != 0) {
            fail("");
        }
        return fd;
    }

    // Deadline connect: non-blocking connect(2), poll for writability,
    // then read the final verdict out of SO_ERROR.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr)
        != 0) {
        if (errno != EINPROGRESS)
            fail("");
        pollfd pfd = {fd, POLLOUT, 0};
        const int rc =
            ::poll(&pfd, 1, static_cast<int>(timeout_ms + 0.5));
        if (rc == 0) {
            errno = ETIMEDOUT;
            fail("no connection within "
                 + std::to_string(static_cast<long>(timeout_ms))
                 + " ms");
        }
        if (rc < 0)
            fail("");
        int soerr = 0;
        socklen_t len = sizeof soerr;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
        if (soerr != 0) {
            errno = soerr;
            fail("");
        }
    }
    ::fcntl(fd, F_SETFL, flags);
    return fd;
}

int
connectTcpRetry(const std::string &host, uint16_t port, double timeout_ms,
                unsigned retries, double backoff_base_ms)
{
    for (unsigned attempt = 0;; ++attempt) {
        try {
            return connectTcp(host, port, timeout_ms);
        } catch (const DavfError &error) {
            if (attempt >= retries)
                throw;
            const double delay_ms = backoff_base_ms
                * static_cast<double>(1u << std::min(attempt, 10u));
            davf_warn("connect to ", host, ":", port, " failed (",
                      error.what(), "); retry ", attempt + 1, "/",
                      retries, " in ", static_cast<long>(delay_ms),
                      " ms");
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay_ms));
        }
    }
}

void
FrameConn::send(std::string_view payload)
{
    if (fd < 0)
        davf_throw(ErrorKind::Io, "send on a closed connection");
    writeFrameFd(fd, payload);
}

FrameConn::ReadStatus
FrameConn::read(std::string &out, double timeout_ms)
{
    if (fd < 0)
        davf_throw(ErrorKind::Io, "read on a closed connection");
    return readFrameTimed(fd, rxBuffer, out, timeout_ms);
}

void
FrameConn::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    rxBuffer.clear();
}

std::string
makeHello(const std::string &node, const std::string &fingerprint)
{
    std::ostringstream os;
    os << kNetMagic << ' ' << kNetVersion << " hello " << node << ' '
       << fingerprint;
    return os.str();
}

Result<Hello>
parseHello(const std::string &payload)
{
    using R = Result<Hello>;
    std::istringstream is(payload);
    std::string magic, version, verb;
    Hello hello;
    if (!(is >> magic >> version >> verb) || magic != kNetMagic) {
        return R::Err(ErrorKind::BadInput,
                      "handshake: not a davf-net frame: "
                          + payload.substr(0, 60));
    }
    if (version != kNetVersion) {
        return R::Err(ErrorKind::BadInput,
                      "handshake: unsupported protocol version '"
                          + version + "' (this side speaks "
                          + std::string(kNetVersion) + ")");
    }
    if (verb != "hello" || !(is >> hello.node >> hello.fingerprint)) {
        return R::Err(ErrorKind::BadInput,
                      "handshake: malformed hello: "
                          + payload.substr(0, 60));
    }
    std::string trailing;
    if (is >> trailing) {
        return R::Err(ErrorKind::BadInput,
                      "handshake: trailing tokens: "
                          + payload.substr(0, 60));
    }
    return R::Ok(std::move(hello));
}

std::string
makeWelcome(double period_ps)
{
    std::string frame = std::string(kNetMagic) + ' '
        + std::string(kNetVersion) + " welcome";
    if (period_ps > 0.0)
        frame += ' ' + hexDouble(period_ps);
    return frame;
}

std::string
makeReject(const std::string &reason)
{
    return std::string(kNetMagic) + ' ' + std::string(kNetVersion)
        + " reject " + reason;
}

Result<HandshakeReply>
parseHandshakeReply(const std::string &payload)
{
    using R = Result<HandshakeReply>;
    std::istringstream is(payload);
    std::string magic, version, verb;
    if (!(is >> magic >> version >> verb) || magic != kNetMagic
        || version != kNetVersion) {
        return R::Err(ErrorKind::BadInput,
                      "handshake: bad reply: " + payload.substr(0, 60));
    }
    HandshakeReply reply;
    if (verb == "welcome") {
        reply.welcome = true;
        std::string token, trailing;
        if (is >> token) {
            if (!textToPositiveHexDouble(token, reply.periodPs)
                || (is >> trailing)) {
                return R::Err(ErrorKind::BadInput,
                              "handshake: bad welcome: "
                                  + payload.substr(0, 60));
            }
        }
        return R::Ok(std::move(reply));
    }
    if (verb == "reject") {
        std::getline(is, reply.reason);
        if (!reply.reason.empty() && reply.reason.front() == ' ')
            reply.reason.erase(0, 1);
        return R::Ok(std::move(reply));
    }
    return R::Err(ErrorKind::BadInput,
                  "handshake: unknown verb '" + verb + "'");
}

} // namespace davf::net
