/**
 * @file
 * Tests for the length-prefixed frame protocol and the Subprocess
 * supervisor plumbing (spawn, deadline reads, exit/signal decode,
 * SIGTERM->SIGKILL escalation, rlimit caps, rusage capture).
 *
 * The binary re-executes itself: `--child-mode=<mode>` turns an
 * invocation into one of several tiny child behaviours (echo server,
 * crasher, hanger, allocator, ...), which is why this test has its own
 * main() instead of linking gtest_main.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "util/error.hh"
#include "util/subprocess.hh"

#if defined(__SANITIZE_ADDRESS__)
#define DAVF_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DAVF_ASAN 1
#endif
#endif

namespace davf::test {
namespace {

/** Child behaviours, selected by --child-mode=<name>. */
int
runChildMode(const std::string &mode)
{
    if (mode == "echo") {
        // Frame echo server: mirror every frame until EOF.
        std::string payload;
        while (readFrameFd(STDIN_FILENO, payload))
            writeFrameFd(STDOUT_FILENO, payload);
        return 0;
    }
    if (mode == "exit7")
        return 7;
    if (mode == "crash")
        abort();
    if (mode == "sleep") {
        // Announce readiness, then hang; dies to the default SIGTERM.
        writeFrameFd(STDOUT_FILENO, "ready");
        for (;;)
            pause();
    }
    if (mode == "stubborn") {
        // Ignores SIGTERM: only SIGKILL gets rid of it.
        signal(SIGTERM, SIG_IGN);
        writeFrameFd(STDOUT_FILENO, "ready");
        for (;;)
            pause();
    }
    if (mode == "alloc") {
        // Touch ~128 MiB; under a small RLIMIT_AS this raises
        // std::bad_alloc, which workers report as exit code 86.
        try {
            std::vector<std::vector<char>> blocks;
            for (int i = 0; i < 128; ++i) {
                blocks.emplace_back(1u << 20, '\1');
                blocks.back()[4096] = char(i);
            }
        } catch (const std::bad_alloc &) {
            _exit(86);
        }
        return 0;
    }
    if (mode == "reply-on-quit") {
        // Models a worker whose final result races the quit frame: on
        // quit it still writes one pipe-capacity-busting reply before
        // exiting cleanly. A parent that closes the pipe instead of
        // draining it leaves this child blocked in write() forever.
        std::string payload;
        while (readFrameFd(STDIN_FILENO, payload)) {
            if (payload == "quit") {
                writeFrameFd(STDOUT_FILENO, std::string(2u << 20, 'r'));
                return 0;
            }
            writeFrameFd(STDOUT_FILENO, payload);
        }
        return 0;
    }
    if (mode == "badframe") {
        // An absurd length prefix: the parent must reject it rather
        // than trying to buffer 4 GiB.
        const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0x7f};
        ssize_t n =
            write(STDOUT_FILENO, prefix, sizeof(prefix));
        (void)n;
        return 0;
    }
    fprintf(stderr, "unknown child mode '%s'\n", mode.c_str());
    return 125;
}

std::vector<std::string>
childArgv(const std::string &mode)
{
    return {Subprocess::selfExePath(), "--child-mode=" + mode};
}

TEST(FrameProtocol, RoundTripsBinaryPayloads)
{
    Subprocess child;
    child.spawn(childArgv("echo"));

    const std::string cases[] = {
        "hello",
        "",                                // empty frame is legal
        std::string("\0\n\r\xff binary \0", 13), // embedded NULs
        std::string(1u << 16, 'x'),        // bigger than one pipe buf
    };
    std::string out;
    for (const std::string &payload : cases) {
        child.send(payload);
        ASSERT_EQ(child.read(out, 5000.0),
                  Subprocess::ReadStatus::Frame);
        EXPECT_EQ(out, payload);
    }

    child.closeWrite();
    EXPECT_EQ(child.read(out, 5000.0),
              Subprocess::ReadStatus::Eof);
    ExitStatus status = child.wait();
    EXPECT_TRUE(status.exited);
    EXPECT_EQ(status.code, 0);
}

TEST(FrameProtocol, BlockingReadLeavesPipelinedFramesUnread)
{
    // A client may send a query and then at once a cancel or stats
    // frame; reading the first must not swallow the second, whichever
    // reader comes next. (All three frames fit one pipe buffer.)
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    writeFrameFd(fds[1], "query");
    writeFrameFd(fds[1], std::string(1u << 15, 's'));
    writeFrameFd(fds[1], "cancel");
    ::close(fds[1]);

    std::string out;
    ASSERT_TRUE(readFrameFd(fds[0], out));
    EXPECT_EQ(out, "query");
    ASSERT_TRUE(readFrameFd(fds[0], out));
    EXPECT_EQ(out, std::string(1u << 15, 's'));
    FdFrameLink link(fds[0], -1);
    ASSERT_EQ(link.read(out, 5000.0), FrameLink::ReadStatus::Frame);
    EXPECT_EQ(out, "cancel");
    EXPECT_FALSE(readFrameFd(fds[0], out));
    ::close(fds[0]);
}

TEST(FrameProtocol, OversizedPrefixIsRejectedNotBuffered)
{
    Subprocess child;
    child.spawn(childArgv("badframe"));
    std::string out;
    try {
        // May need a couple of reads before the bytes arrive.
        for (int i = 0; i < 50; ++i) {
            Subprocess::ReadStatus status =
                child.read(out, 200.0);
            if (status == Subprocess::ReadStatus::Eof)
                FAIL() << "EOF before the bogus prefix was seen";
        }
        FAIL() << "oversized frame prefix was accepted";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::BadInput);
    }
    child.terminate(200.0);
}

TEST(Subprocess, DecodesExitCodes)
{
    Subprocess child;
    child.spawn(childArgv("exit7"));
    std::string out;
    EXPECT_EQ(child.read(out, 5000.0),
              Subprocess::ReadStatus::Eof);
    ExitStatus status = child.wait();
    EXPECT_TRUE(status.exited);
    EXPECT_FALSE(status.signaled);
    EXPECT_EQ(status.code, 7);
    EXPECT_NE(status.describe().find("7"), std::string::npos);
}

TEST(Subprocess, DecodesFatalSignals)
{
    Subprocess child;
    child.spawn(childArgv("crash"));
    std::string out;
    EXPECT_EQ(child.read(out, 5000.0),
              Subprocess::ReadStatus::Eof);
    ExitStatus status = child.wait();
    EXPECT_FALSE(status.exited);
    EXPECT_TRUE(status.signaled);
    EXPECT_EQ(status.signal, SIGABRT);
}

TEST(Subprocess, ReadDeadlineExpiresWithoutLosingTheChild)
{
    Subprocess child;
    child.spawn(childArgv("sleep"));
    std::string out;
    ASSERT_EQ(child.read(out, 5000.0),
              Subprocess::ReadStatus::Frame);
    EXPECT_EQ(out, "ready");

    // Nothing further is coming: the deadline must fire...
    EXPECT_EQ(child.read(out, 100.0),
              Subprocess::ReadStatus::Timeout);
    // ...and the child must still be alive and supervisable.
    EXPECT_TRUE(child.running());
    ExitStatus status = child.terminate(2000.0);
    EXPECT_TRUE(status.signaled);
    EXPECT_EQ(status.signal, SIGTERM);
}

TEST(Subprocess, TerminateEscalatesToSigkill)
{
    Subprocess child;
    child.spawn(childArgv("stubborn"));
    std::string out;
    // Wait for "ready" so the SIGTERM handler is installed before we
    // try to terminate; otherwise the test races the child's setup.
    ASSERT_EQ(child.read(out, 5000.0),
              Subprocess::ReadStatus::Frame);
    ASSERT_EQ(out, "ready");

    ExitStatus status = child.terminate(200.0);
    EXPECT_TRUE(status.signaled);
    EXPECT_EQ(status.signal, SIGKILL);
}

TEST(Subprocess, CapturesRusage)
{
    Subprocess child;
    child.spawn(childArgv("alloc"));
    std::string out;
    EXPECT_EQ(child.read(out, 30000.0),
              Subprocess::ReadStatus::Eof);
    ExitStatus status = child.wait();
    EXPECT_TRUE(status.exited);
    EXPECT_EQ(status.code, 0);
    // The allocator touched >= 128 MiB; rusage must reflect that.
    EXPECT_GT(status.maxRssKb, 64 * 1024);
}

TEST(Subprocess, MemLimitTurnsRunawayAllocationIntoBadAlloc)
{
#ifdef DAVF_ASAN
    GTEST_SKIP() << "RLIMIT_AS breaks ASan's shadow mappings";
#else
    Subprocess child;
    SpawnOptions options;
    options.memLimitMb = 48; // well under the 128 MiB the child wants
    child.spawn(childArgv("alloc"), options);
    std::string out;
    EXPECT_EQ(child.read(out, 30000.0),
              Subprocess::ReadStatus::Eof);
    ExitStatus status = child.wait();
    EXPECT_TRUE(status.exited);
    EXPECT_EQ(status.code, 86); // the worker OOM convention
#endif
}

TEST(Subprocess, SendFrameToDeadChildThrowsIo)
{
    Subprocess child;
    child.spawn(childArgv("exit7"));
    std::string out;
    // The child is gone (EOF) but deliberately not reaped yet: this is
    // the supervisor's position when a worker dies mid-dispatch.
    EXPECT_EQ(child.read(out, 5000.0),
              Subprocess::ReadStatus::Eof);
    // The pipe may absorb one frame into its buffer; writing a few
    // large frames must surface EPIPE as DavfError{Io}, not SIGPIPE.
    try {
        const std::string big(1u << 20, 'y');
        for (int i = 0; i < 8; ++i)
            child.send(big);
        FAIL() << "writes to a dead child never failed";
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::Io);
    }
    ExitStatus status = child.wait();
    EXPECT_TRUE(status.exited);
    EXPECT_EQ(status.code, 7);
}

TEST(Subprocess, QuitRacingReplyIsDrainedNotKilled)
{
    // The shutdown discipline shared by the supervisor and the net
    // coordinator: after sending quit, drain the worker until EOF
    // instead of closing/terminating straight away. A worker blocked
    // writing a reply larger than the pipe capacity can then finish
    // its write and exit 0; anything else loses the in-flight result
    // and misreports a clean shutdown as a worker failure.
    Subprocess child;
    child.spawn(childArgv("reply-on-quit"));
    child.send("quit");

    std::string payload;
    size_t drained = 0;
    for (;;) {
        const Subprocess::ReadStatus status =
            child.read(payload, 15000.0);
        ASSERT_NE(status, Subprocess::ReadStatus::Timeout);
        if (status != Subprocess::ReadStatus::Frame)
            break;
        ++drained;
        EXPECT_EQ(payload, std::string(2u << 20, 'r'));
    }
    EXPECT_EQ(drained, 1u);
    const ExitStatus status = child.wait();
    EXPECT_TRUE(status.exited) << status.describe();
    EXPECT_EQ(status.code, 0) << status.describe();
}

TEST(Subprocess, SelfExePathIsAbsoluteAndExists)
{
    const std::string path = Subprocess::selfExePath();
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), '/');
    EXPECT_EQ(access(path.c_str(), X_OK), 0);
}

} // namespace
} // namespace davf::test

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        constexpr const char *kFlag = "--child-mode=";
        if (strncmp(argv[i], kFlag, strlen(kFlag)) == 0)
            return davf::test::runChildMode(argv[i] + strlen(kFlag));
    }
    signal(SIGPIPE, SIG_IGN);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
