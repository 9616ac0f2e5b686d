/**
 * @file
 * TCP plumbing for the distributed campaign fabric.
 *
 * The wire format is exactly the campaign worker pipe protocol lifted
 * onto a socket: 4-byte little-endian length-prefixed frames with the
 * same kMaxFrameBytes ceiling (util/subprocess.hh), so a reader never
 * sees a torn message and an oversized or hostile length prefix is
 * rejected *before* any allocation.
 *
 * On top of the frames sits a versioned handshake. A connecting worker
 * introduces itself first:
 *
 *   worker -> coordinator   "davf-net v1 hello <node> <fingerprint>"
 *   coordinator -> worker   "davf-net v1 welcome [<period>]"
 *                         | "davf-net v1 reject <reason>"
 *
 * The fingerprint is the workspace build fingerprint
 * (service::Workspace::fingerprint()): two processes with equal
 * fingerprints compute bit-identical shard outcomes, so the coordinator
 * refuses nodes built from a different design/workload instead of
 * silently mixing results. A garbage or wrong-version hello is rejected
 * and the connection closed.
 *
 * The optional <period> is the coordinator's observed-max clock period
 * in picoseconds, as one positive, finite `%a` hexfloat token (util/
 * parse hexDouble), so it arrives bit-exact. A node that has not
 * measured its own period adopts it and skips the timed golden pass; a
 * bare welcome (an STA-clock coordinator, or one that predates the
 * token) leaves the node to measure. The token is append-only: a
 * welcome with anything else after the verb — a second token, a
 * decimal, zero, negative, inf or nan — is malformed.
 *
 * See docs/DISTRIBUTED.md for the full frame grammar.
 */

#ifndef DAVF_NET_FRAME_HH
#define DAVF_NET_FRAME_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "util/error.hh"
#include "util/subprocess.hh"

namespace davf::net {

/** Handshake magic + protocol version, checked verbatim. */
inline constexpr std::string_view kNetMagic = "davf-net";
inline constexpr std::string_view kNetVersion = "v1";

/** A bound, listening TCP socket. */
struct ListenSocket
{
    int fd = -1;
    uint16_t port = 0; ///< The bound port (resolved when asked for 0).
};

/**
 * Bind + listen on @p host:@p port (throws DavfError{Io}). Port 0 binds
 * an ephemeral port; the resolved number is returned in the result.
 */
ListenSocket listenTcp(const std::string &host, uint16_t port);

/** Accept one connection (retries EINTR; throws DavfError{Io}). */
int acceptTcp(int listen_fd);

/**
 * Connect to @p host:@p port with a wall-clock budget of
 * @p timeout_ms (<= 0 means the OS default). Throws DavfError{Io} on
 * refusal, timeout, or an unresolvable host.
 */
int connectTcp(const std::string &host, uint16_t port,
               double timeout_ms);

/**
 * connectTcp with up to @p retries additional attempts, backing off
 * exponentially from @p backoff_base_ms between attempts — a worker
 * started before (or across a restart of) its coordinator rides the
 * ECONNREFUSED window out instead of dying on the first one.
 */
int connectTcpRetry(const std::string &host, uint16_t port,
                    double timeout_ms, unsigned retries,
                    double backoff_base_ms);

/** Split "host:port" (throws DavfError{BadArgument} on bad input). */
void parseHostPort(const std::string &text, std::string &host,
                   uint16_t &port);

/**
 * One framed stream connection. Owns the fd; reads buffer partial
 * frames across calls (a Timeout loses nothing), writes retry short
 * writes and EINTR (util/subprocess writeFrameFd). Not thread-safe:
 * callers that write from several threads share a mutex.
 */
class FrameConn final : public FrameLink
{
  public:
    FrameConn() = default;
    explicit FrameConn(int the_fd) : fd(the_fd) {}
    ~FrameConn() override { close(); }

    FrameConn(const FrameConn &) = delete;
    FrameConn &operator=(const FrameConn &) = delete;
    FrameConn(FrameConn &&other) noexcept { *this = std::move(other); }
    FrameConn &
    operator=(FrameConn &&other) noexcept
    {
        if (this != &other) {
            close();
            fd = other.fd;
            rxBuffer = std::move(other.rxBuffer);
            other.fd = -1;
            other.rxBuffer.clear();
        }
        return *this;
    }

    bool open() const { return fd >= 0; }

    /** FrameLink::send; throws DavfError{Io} once closed. */
    void send(std::string_view payload) override;

    /** FrameLink::read; throws DavfError{Io} once closed. */
    ReadStatus read(std::string &out, double timeout_ms) override;

    /** Close the connection (idempotent). */
    void close();

  private:
    int fd = -1;
    std::string rxBuffer; ///< Bytes read but not yet framed.
};

/** A parsed worker hello. */
struct Hello
{
    std::string node;        ///< Worker's self-chosen node name.
    std::string fingerprint; ///< Its workspace build fingerprint.
};

/** The "davf-net v1 hello <node> <fingerprint>" frame text. */
std::string makeHello(const std::string &node,
                      const std::string &fingerprint);

/** Parse a hello frame; wrong magic/version/shape is an Err. */
Result<Hello> parseHello(const std::string &payload);

/** The "davf-net v1 welcome" frame text, with the hexfloat period
 *  token appended when @p period_ps > 0. */
std::string makeWelcome(double period_ps = 0.0);

/** The "davf-net v1 reject <reason>" frame text. */
std::string makeReject(const std::string &reason);

/** A parsed coordinator reply to a hello. */
struct HandshakeReply
{
    bool welcome = false;  ///< Welcome (else reject).
    std::string reason;    ///< The reject reason.
    double periodPs = 0.0; ///< The welcome's period token; 0 if bare.
};

/** Classify a handshake reply; anything but a well-formed welcome or
 *  reject (see file comment) is an Err. */
Result<HandshakeReply> parseHandshakeReply(const std::string &payload);

} // namespace davf::net

#endif // DAVF_NET_FRAME_HH
