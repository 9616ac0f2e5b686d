#include "protocol.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "util/logging.hh"
#include "util/parse.hh"

namespace davf::service {

namespace {

/** Fill a sockaddr_un; socket paths are length-limited by the ABI. */
sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path) {
        davf_throw(ErrorKind::BadArgument, "socket path '", path,
                   "' is empty or longer than ",
                   sizeof addr.sun_path - 1, " bytes");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

std::string
serializeQuerySpec(const QuerySpec &query)
{
    std::ostringstream os;
    os << serializeWorkspaceSpec(query.workspace) << ' '
       << query.structure << ' ' << query.delays.size();
    for (double d : query.delays)
        os << ' ' << hexDouble(d);
    const SamplingConfig &sampling = query.sampling;
    os << ' ' << (query.runSavf ? 1 : 0) << ' '
       << hexDouble(sampling.cycleFraction) << ' '
       << sampling.maxInjectionCycles << ' ' << sampling.maxWires << ' '
       << sampling.maxFlops << ' ' << sampling.seed << ' '
       << sampling.watchdogSlack << ' '
       << hexDouble(sampling.injectionTimeoutMs) << ' '
       << hexDouble(sampling.maxFailureRate);
    // Written only when set so attribution-off frames stay byte-equal
    // to pre-attribution clients (same rule as serializeShardSpec).
    if (sampling.attribution)
        os << " attr";
    return os.str();
}

Result<QuerySpec>
parseQuerySpec(const std::string &text)
{
    using R = Result<QuerySpec>;
    std::istringstream is(text);
    QuerySpec query;

    std::string benchmark;
    int ecc = 0;
    int sta = 0;
    if (!(is >> benchmark >> ecc >> sta) || (ecc != 0 && ecc != 1)
        || (sta != 0 && sta != 1)) {
        return R::Err(ErrorKind::BadInput,
                      "query spec: bad workspace fields: " + text);
    }
    query.workspace.benchmark = std::move(benchmark);
    query.workspace.ecc = ecc == 1;
    query.workspace.staPeriod = sta == 1;

    size_t num_delays = 0;
    if (!(is >> query.structure >> num_delays)
        || num_delays > 1u << 16) {
        return R::Err(ErrorKind::BadInput,
                      "query spec: bad structure/delay count: " + text);
    }
    query.delays.resize(num_delays);
    for (double &d : query.delays) {
        if (!readDouble(is, d)) {
            return R::Err(ErrorKind::BadInput,
                          "query spec: bad delay list: " + text);
        }
    }

    int savf = 0;
    SamplingConfig &sampling = query.sampling;
    if (!(is >> savf) || (savf != 0 && savf != 1)
        || !readDouble(is, sampling.cycleFraction)
        || !(is >> sampling.maxInjectionCycles >> sampling.maxWires
                >> sampling.maxFlops >> sampling.seed
                >> sampling.watchdogSlack)
        || !readDouble(is, sampling.injectionTimeoutMs)
        || !readDouble(is, sampling.maxFailureRate)) {
        return R::Err(ErrorKind::BadInput,
                      "query spec: bad sampling fields: " + text);
    }
    query.runSavf = savf == 1;

    std::string trailing;
    if (is >> trailing && trailing == "attr") {
        sampling.attribution = true;
        trailing.clear();
        is >> trailing;
    }
    if (!trailing.empty()) {
        return R::Err(ErrorKind::BadInput,
                      "query spec: trailing tokens: " + text);
    }
    return R::Ok(std::move(query));
}

std::string
makeQueryFrame(const QuerySpec &query)
{
    return "query " + serializeQuerySpec(query);
}

Result<ClientFrame>
parseClientFrame(const std::string &payload)
{
    using R = Result<ClientFrame>;
    ClientFrame frame;
    if (payload == "cancel") {
        frame.verb = ClientFrame::Verb::Cancel;
        return R::Ok(std::move(frame));
    }
    if (payload == "stats") {
        frame.verb = ClientFrame::Verb::Stats;
        return R::Ok(std::move(frame));
    }
    if (payload == "quit") {
        frame.verb = ClientFrame::Verb::Quit;
        return R::Ok(std::move(frame));
    }
    if (payload.rfind("query ", 0) == 0) {
        Result<QuerySpec> query = parseQuerySpec(payload.substr(6));
        if (!query)
            return R::Err(query.error());
        frame.verb = ClientFrame::Verb::Query;
        frame.query = std::move(query.value());
        return R::Ok(std::move(frame));
    }
    return R::Err(ErrorKind::BadInput, "unknown client frame '"
                                           + payload.substr(0, 60)
                                           + "'");
}

std::string
serializeServerReply(const ServerReply &reply)
{
    if (reply.ok) {
        std::string text = "ok " + reply.tag;
        if (!reply.body.empty())
            text += ' ' + reply.body;
        return text;
    }
    return "err " + reply.errorKind + ' ' + reply.message;
}

Result<ServerReply>
parseServerReply(const std::string &payload)
{
    using R = Result<ServerReply>;
    std::istringstream is(payload);
    std::string status;
    ServerReply reply;
    if (!(is >> status))
        return R::Err(ErrorKind::BadInput, "empty server reply");
    if (status == "ok") {
        if (!(is >> reply.tag) || (reply.tag != "report"
                                   && reply.tag != "stats"
                                   && reply.tag != "bye")) {
            return R::Err(ErrorKind::BadInput,
                          "server reply: bad tag: "
                              + payload.substr(0, 60));
        }
        reply.ok = true;
        std::getline(is, reply.body);
        if (!reply.body.empty() && reply.body.front() == ' ')
            reply.body.erase(0, 1);
        return R::Ok(std::move(reply));
    }
    if (status == "err") {
        if (!(is >> reply.errorKind)) {
            return R::Err(ErrorKind::BadInput,
                          "server reply: missing error kind");
        }
        std::getline(is, reply.message);
        if (!reply.message.empty() && reply.message.front() == ' ')
            reply.message.erase(0, 1);
        return R::Ok(std::move(reply));
    }
    return R::Err(ErrorKind::BadInput, "server reply: bad status '"
                                           + status + "'");
}

int
listenUnix(const std::string &path)
{
    const sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        davf_throw(ErrorKind::Io, "socket(AF_UNIX): ",
                   std::strerror(errno));
    }
    // A stale socket file from a previous server blocks bind(2);
    // replacing it is the conventional unix-socket server dance.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr)
        != 0) {
        const int saved = errno;
        ::close(fd);
        davf_throw(ErrorKind::Io, "bind('", path, "'): ",
                   std::strerror(saved));
    }
    if (::listen(fd, 64) != 0) {
        const int saved = errno;
        ::close(fd);
        davf_throw(ErrorKind::Io, "listen('", path, "'): ",
                   std::strerror(saved));
    }
    return fd;
}

int
connectUnix(const std::string &path)
{
    const sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        davf_throw(ErrorKind::Io, "socket(AF_UNIX): ",
                   std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr)
        != 0) {
        const int saved = errno;
        ::close(fd);
        davf_throw(ErrorKind::Io, "connect('", path, "'): ",
                   std::strerror(saved));
    }
    return fd;
}

} // namespace davf::service
