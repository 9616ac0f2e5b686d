#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "harness.hh"
#include "util/logging.hh"

namespace davf::e2e {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
childCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_CHILDREN, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
            + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Child::~Child()
{
    if (running()) {
        ::kill(pid, SIGKILL);
        wait();
    }
    if (outFd >= 0)
        ::close(outFd);
    if (errFd >= 0)
        ::close(errFd);
}

void
Child::spawn(const std::vector<std::string> &argv,
             const std::string &log_path)
{
    davf_assert(pid < 0, "Child::spawn called twice");
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);

    int out_pipe[2] = {-1, -1};
    int err_pipe[2] = {-1, -1};
    int log_fd = -1;
    if (log_path.empty()) {
        if (::pipe2(out_pipe, O_CLOEXEC) != 0
            || ::pipe2(err_pipe, O_CLOEXEC) != 0) {
            davf_throw(ErrorKind::Io, "pipe: ", std::strerror(errno));
        }
    } else {
        log_fd = ::open(log_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (log_fd < 0) {
            davf_throw(ErrorKind::Io, "open '", log_path,
                       "': ", std::strerror(errno));
        }
    }

    pid = ::fork();
    if (pid < 0)
        davf_throw(ErrorKind::Io, "fork: ", std::strerror(errno));
    if (pid == 0) {
        // Child: only async-signal-safe calls until exec.
        const int null_fd = ::open("/dev/null", O_RDWR);
        ::dup2(null_fd, STDIN_FILENO);
        if (log_fd >= 0) {
            ::dup2(null_fd, STDOUT_FILENO);
            ::dup2(log_fd, STDERR_FILENO);
        } else {
            ::dup2(out_pipe[1], STDOUT_FILENO);
            ::dup2(err_pipe[1], STDERR_FILENO);
        }
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    if (log_fd >= 0) {
        ::close(log_fd);
    } else {
        ::close(out_pipe[1]);
        ::close(err_pipe[1]);
        outFd = out_pipe[0];
        errFd = err_pipe[0];
    }
}

void
Child::setExit(int wstatus, const struct rusage &usage)
{
    reaped = true;
    status.exited = WIFEXITED(wstatus);
    status.code = status.exited ? WEXITSTATUS(wstatus) : -1;
    status.signaled = WIFSIGNALED(wstatus);
    status.signal = status.signaled ? WTERMSIG(wstatus) : 0;
    status.maxRssKb = usage.ru_maxrss;
}

bool
Child::tryReap()
{
    if (reaped)
        return true;
    int wstatus = 0;
    rusage usage{};
    const pid_t got = ::wait4(pid, &wstatus, WNOHANG, &usage);
    if (got == pid)
        setExit(wstatus, usage);
    return reaped;
}

ExitStatus
Child::wait()
{
    while (!reaped) {
        int wstatus = 0;
        rusage usage{};
        const pid_t got = ::wait4(pid, &wstatus, 0, &usage);
        if (got == pid) {
            setExit(wstatus, usage);
        } else if (got < 0 && errno != EINTR) {
            davf_throw(ErrorKind::Io, "wait4: ", std::strerror(errno));
        }
    }
    return status;
}

ExitStatus
Child::terminate(double grace_s)
{
    if (reaped)
        return status;
    ::kill(pid, SIGTERM);
    const Clock::time_point start = Clock::now();
    while (!tryReap() && secondsSince(start) < grace_s)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!reaped)
        ::kill(pid, SIGKILL);
    return wait();
}

std::string
Child::runToExit(const std::function<void(const std::string &)> &on_line,
                 const std::function<void()> &on_tick)
{
    davf_assert(outFd >= 0 && errFd >= 0,
                "runToExit needs a child spawned with pipes");
    std::string out;
    std::string err_line;
    pollfd fds[2] = {{outFd, POLLIN, 0}, {errFd, POLLIN, 0}};
    while (fds[0].fd >= 0 || fds[1].fd >= 0) {
        const int ready = ::poll(fds, 2, 10);
        if (ready < 0 && errno != EINTR)
            davf_throw(ErrorKind::Io, "poll: ", std::strerror(errno));
        for (int i = 0; i < 2 && ready > 0; ++i) {
            if (fds[i].fd < 0 || fds[i].revents == 0)
                continue;
            char buf[4096];
            const ssize_t got = ::read(fds[i].fd, buf, sizeof buf);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0) {
                fds[i].fd = -1;
                continue;
            }
            if (i == 0) {
                out.append(buf, static_cast<size_t>(got));
                continue;
            }
            for (ssize_t k = 0; k < got; ++k) {
                if (buf[k] != '\n') {
                    err_line += buf[k];
                    continue;
                }
                on_line(err_line);
                err_line.clear();
            }
        }
        if (on_tick)
            on_tick();
    }
    ::close(outFd);
    ::close(errFd);
    outFd = errFd = -1;
    wait();
    return out;
}

} // namespace davf::e2e
