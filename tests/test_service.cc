/**
 * @file
 * Tests for the davf_serve subsystem (src/service/):
 *
 *  - workspace specs and the netlist structural hash;
 *  - the persistent result store: record round trips, corruption
 *    tolerance (truncated / wrong-version / key-collision records all
 *    degrade to misses and are repaired by the next store), LRU
 *    eviction with disk fallback, concurrent writers, and a fuzz
 *    corpus over the record parser;
 *  - legacy per-file record directories, migrated at open;
 *  - the client/server protocol: query-spec and frame round trips,
 *    malformed-input rejection, and a live Unix-socket frame exchange;
 *  - the query scheduler: cold queries compute and persist, warm
 *    queries are served entirely from the store with byte-identical
 *    reports, results match a direct engine evaluation bit-for-bit,
 *    concurrent identical queries simulate each shard once, all-hit
 *    queries never wait for the compute lock, and cancellation
 *    surfaces as a recoverable error.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/report.hh"
#include "src/core/shard.hh"
#include "src/core/vulnerability.hh"
#include "src/service/cli.hh"
#include "src/service/protocol.hh"
#include "src/service/result_store.hh"
#include "src/service/scheduler.hh"
#include "src/service/workspace.hh"
#include "src/util/parse.hh"
#include "src/util/rng.hh"
#include "src/util/subprocess.hh"
#include "tests/helpers.hh"

namespace davf::service {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "davf_service_"
        + std::to_string(::getpid()) + "_" + name;
}

// ------------------------------------------------------------- workspace

TEST(WorkspaceSpecText, RoundTrips)
{
    WorkspaceSpec spec;
    spec.benchmark = "md5";
    spec.ecc = true;
    spec.staPeriod = false;
    const auto parsed = parseWorkspaceSpec(serializeWorkspaceSpec(spec));
    ASSERT_TRUE(parsed.ok()) << parsed.error().what();
    EXPECT_EQ(parsed.value(), spec);
}

TEST(WorkspaceSpecText, RejectsDamage)
{
    EXPECT_FALSE(parseWorkspaceSpec("").ok());
    EXPECT_FALSE(parseWorkspaceSpec("md5").ok());
    EXPECT_FALSE(parseWorkspaceSpec("md5 2 0").ok());
    EXPECT_FALSE(parseWorkspaceSpec("md5 1 0 extra").ok());
}

TEST(NetlistHash, StableAndDiscriminating)
{
    const auto a1 = test::makeRandomCircuit(5, 6, 24, 8);
    const auto a2 = test::makeRandomCircuit(5, 6, 24, 8);
    const auto b = test::makeRandomCircuit(6, 6, 24, 8);
    EXPECT_EQ(netlistHash(*a1.netlist), netlistHash(*a2.netlist));
    EXPECT_NE(netlistHash(*a1.netlist), netlistHash(*b.netlist));
}

TEST(WorkspacePeriod, AdoptingMatchesMeasuringBitForBit)
{
    // What a process worker or net node builds: the untimed pass only,
    // then the parent's period adopted. Everything the store and the
    // handshake key on must match a measuring build.
    WorkspaceSpec spec;
    spec.benchmark = "popcount";
    Workspace measured(spec);
    WorkspaceOptions deferred;
    deferred.measurePeriod = false;
    Workspace adopted(spec, deferred);
    EXPECT_EQ(adopted.fingerprint(), measured.fingerprint());
    adopted.engine().adoptClockPeriod(measured.engine().clockPeriod());
    EXPECT_EQ(adopted.engine().periodSource(),
              VulnerabilityEngine::PeriodSource::Adopted);

    EXPECT_EQ(std::bit_cast<uint64_t>(adopted.engine().clockPeriod()),
              std::bit_cast<uint64_t>(measured.engine().clockPeriod()));
    EXPECT_EQ(adopted.engine().goldenCycles(),
              measured.engine().goldenCycles());
    EXPECT_EQ(adopted.engine().goldenOutput(),
              measured.engine().goldenOutput());
}

// ------------------------------------------------------------ the store

TEST(ResultStoreRecord, RoundTrips)
{
    const std::string text =
        ResultStore::serializeRecord("some key", "payload 1 2 3");
    const auto parsed = ResultStore::parseRecord(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().what();
    EXPECT_EQ(parsed.value().first, "some key");
    EXPECT_EQ(parsed.value().second, "payload 1 2 3");
}

TEST(ResultStoreRecord, RejectsDamage)
{
    const std::string good = ResultStore::serializeRecord("k", "p");
    EXPECT_TRUE(ResultStore::parseRecord(good).ok());

    EXPECT_FALSE(ResultStore::parseRecord("").ok());
    EXPECT_FALSE(ResultStore::parseRecord("davf-store v2\nkey k\n"
                                          "payload p\nend\n")
                     .ok());
    EXPECT_FALSE(ResultStore::parseRecord("davf-store v1\nkey k\n"
                                          "payload p\n")
                     .ok()); // missing end sentinel
    EXPECT_FALSE(
        ResultStore::parseRecord(good + "trailing garbage\n").ok());
    EXPECT_FALSE(ResultStore::parseRecord("davf-store v1\nkey \n"
                                          "payload p\nend\n")
                     .ok()); // empty key
}

TEST(ResultStore_, MemoryOnlyHitsAndMisses)
{
    ResultStore store({.dir = "", .memCapacity = 8});
    EXPECT_FALSE(store.lookup("k").has_value());
    store.store("k", "v");
    const auto hit = store.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "v");
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_FALSE(store.indexed());
}

TEST(ResultStore_, PersistsAcrossInstances)
{
    const std::string dir = tempPath("persist");
    std::filesystem::remove_all(dir);
    {
        ResultStore store({.dir = dir, .memCapacity = 8});
        store.store("k one", "v 1");
    }
    ResultStore fresh({.dir = dir, .memCapacity = 8});
    const auto hit = fresh.lookup("k one");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "v 1");
    EXPECT_EQ(fresh.stats().diskHits, 1u);
    // A second lookup is served from the now-populated memory tier.
    fresh.lookup("k one");
    EXPECT_EQ(fresh.stats().memoryHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStore_, TruncatedRecordIsAMissAndIsRepaired)
{
    const std::string dir = tempPath("truncated");
    std::filesystem::remove_all(dir);
    {
        ResultStore store({.dir = dir, .memCapacity = 0});
        store.store("k", "v");
    }
    // Cut the record's frame short, as a crash mid-append would.
    const std::string segments = dir + "/" + davf::store::kDataFileName;
    std::filesystem::resize_file(
        segments, std::filesystem::file_size(segments) / 2);

    ResultStore store({.dir = dir, .memCapacity = 0});
    EXPECT_FALSE(store.lookup("k").has_value());
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.indexStats()->tailRepairs, 1u);

    // The recompute-and-store path repairs the damaged record.
    store.store("k", "v");
    const auto hit = store.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "v");
    std::filesystem::remove_all(dir);
}

/** Plant @p record verbatim under @p key in a fresh store at @p dir. */
void
plantRecord(const std::string &dir, const std::string &key,
            const std::string &record)
{
    std::filesystem::remove_all(dir);
    davf::store::IndexStore index({.dir = dir});
    index.putRecord(key, record);
}

TEST(ResultStore_, WrongVersionRecordIsAMiss)
{
    // Too-old grammar: damage, counted as corrupt.
    const std::string dir = tempPath("version");
    plantRecord(dir, "k", "davf-store v1\nkey k\npayload v\nend\n");
    ResultStore store({.dir = dir, .memCapacity = 0});
    EXPECT_FALSE(store.lookup("k").has_value());
    EXPECT_EQ(store.stats().corruptRecords, 1u);
    EXPECT_EQ(store.stats().futureRecords, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStore_, FutureVersionRecordIsAMissButSurvives)
{
    // A record written by a newer binary sharing the directory is a
    // miss, not damage: tallied separately and its slot kept — the
    // newer writer still serves it.
    const std::string dir = tempPath("future");
    plantRecord(dir, "k",
                "davf-store v999\nkey k\npayload v\nnewfield x\nend\n");
    ResultStore store({.dir = dir, .memCapacity = 0});
    EXPECT_FALSE(store.lookup("k").has_value());
    EXPECT_EQ(store.stats().futureRecords, 1u);
    EXPECT_EQ(store.stats().corruptRecords, 0u);
    EXPECT_EQ(store.indexStats()->keys, 1u);
    EXPECT_FALSE(store.lookup("k").has_value());
    EXPECT_EQ(store.stats().futureRecords, 2u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStore_, EmbeddedKeyMismatchIsAMiss)
{
    // Simulate a key-hash collision: the record indexed under "mine"
    // has someone else's embedded key.
    const std::string dir = tempPath("collision");
    plantRecord(dir, "mine", ResultStore::serializeRecord("theirs", "w"));
    ResultStore store({.dir = dir, .memCapacity = 0});
    EXPECT_FALSE(store.lookup("mine").has_value());
    EXPECT_EQ(store.stats().corruptRecords, 1u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStore_, LruEvictionFallsBackToDisk)
{
    const std::string dir = tempPath("lru");
    std::filesystem::remove_all(dir);
    ResultStore store({.dir = dir, .memCapacity = 2});
    store.store("a", "1");
    store.store("b", "2");
    store.store("c", "3"); // evicts "a"
    EXPECT_EQ(store.stats().evictions, 1u);

    const auto hit = store.lookup("a");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "1");
    EXPECT_EQ(store.stats().diskHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStore_, LruEvictionWithoutDiskIsAMiss)
{
    ResultStore store({.dir = "", .memCapacity = 1});
    store.store("a", "1");
    store.store("b", "2");
    EXPECT_FALSE(store.lookup("a").has_value());
    ASSERT_TRUE(store.lookup("b").has_value());
}

TEST(ResultStore_, ConcurrentWritersAndReaders)
{
    const std::string dir = tempPath("concurrent");
    std::filesystem::remove_all(dir);
    ResultStore store({.dir = dir, .memCapacity = 16});

    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 40;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, t] {
            for (unsigned i = 0; i < kRounds; ++i) {
                // Half the keys are shared across threads, half private.
                const std::string key = i % 2 == 0
                    ? "shared " + std::to_string(i)
                    : "t" + std::to_string(t) + " " + std::to_string(i);
                const std::string value = "v " + std::to_string(i);
                store.store(key, value);
                const auto hit = store.lookup(key);
                EXPECT_TRUE(hit.has_value());
                if (hit) {
                    EXPECT_EQ(*hit, value);
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.writes, kThreads * kRounds);
    EXPECT_EQ(stats.corruptRecords, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ShardCache, NetWriterPicksV3ForAttributionAndParsesStrictly)
{
    const std::string dir = tempPath("shard_cache");
    std::filesystem::remove_all(dir);
    ShardSpec plain_spec;
    plain_spec.kind = ShardSpec::Kind::Cycle;
    plain_spec.structure = "ALU";
    plain_spec.delayFraction = 0.5;
    plain_spec.cycle = 3;
    ShardSpec attr_spec = plain_spec;
    attr_spec.cycle = 4;
    ShardSpec savf_spec = plain_spec;
    savf_spec.kind = ShardSpec::Kind::Savf;

    InjectionCycleOutcome plain;
    plain.cycle = 3;
    plain.injections = 12;
    plain.delayAce = 2;
    InjectionCycleOutcome attributed = plain;
    attributed.cycle = 4;
    attributed.attr.valid = true;
    attributed.attr.pc = 0x40;
    attributed.attr.mnemonic = "add x1, x2, x3";
    attributed.attr.events.push_back({0x44, "sw x1, 0(x2)", "mem", 2});
    SavfResult savf;
    savf.savf = 0.25;
    savf.injections = 8;
    savf.aceInjections = 2;
    {
        ResultStore store({.dir = dir, .memCapacity = 0});
        const ShardCache hooks = shardCacheHooks(store, "fp");
        hooks.store(plain_spec, plain, {});
        hooks.store(attr_spec, attributed, {});
        hooks.store(savf_spec, {}, savf);
    }
    // The same grammar the query scheduler writes: v3 exactly for the
    // attribution-bearing outcome.
    std::ifstream file(dir + "/segments.davf", std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    const auto recordHead = [&](const ShardSpec &spec) {
        const std::string line = "\nkey " + shardStoreKey("fp", spec);
        const size_t at = bytes.find(line);
        EXPECT_NE(at, std::string::npos);
        return bytes.substr(bytes.rfind("davf-store v", at), 13);
    };
    EXPECT_EQ(recordHead(plain_spec), "davf-store v2");
    EXPECT_EQ(recordHead(attr_spec), "davf-store v3");
    EXPECT_EQ(recordHead(savf_spec), "davf-store v2");

    ResultStore store({.dir = dir, .memCapacity = 0});
    const ShardCache hooks = shardCacheHooks(store, "fp");
    InjectionCycleOutcome cycle;
    SavfResult unused;
    ASSERT_TRUE(hooks.lookup(attr_spec, cycle, unused));
    EXPECT_EQ(cycle, attributed);
    ASSERT_TRUE(hooks.lookup(plain_spec, cycle, unused));
    EXPECT_EQ(cycle, plain);
    SavfResult savf_hit;
    ASSERT_TRUE(hooks.lookup(savf_spec, cycle, savf_hit));
    EXPECT_EQ(savf_hit.injections, 8u);

    // A well-formed record whose payload has a trailing token is a
    // miss, exactly as the query scheduler reads it.
    ShardSpec junk_spec = plain_spec;
    junk_spec.cycle = 5;
    store.store(shardStoreKey("fp", junk_spec),
                serializeOutcomeFields(plain) + " junk");
    EXPECT_FALSE(hooks.lookup(junk_spec, cycle, unused));
    ShardSpec absent_spec = plain_spec;
    absent_spec.cycle = 6;
    EXPECT_FALSE(hooks.lookup(absent_spec, cycle, unused));
    std::filesystem::remove_all(dir);
}

TEST(ResultStore_, FuzzedRecordParserNeverCrashes)
{
    const std::string base =
        ResultStore::serializeRecord("fp 0.5 spec tokens",
                                     "0x1.8p-1 12 34 end-like payload");
    // Every truncation point.
    for (size_t len = 0; len <= base.size(); ++len) {
        const auto parsed = ResultStore::parseRecord(base.substr(0, len));
        if (len == base.size()) {
            EXPECT_TRUE(parsed.ok());
        }
    }
    // Seeded random mutations: flips, inserts, erasures.
    Rng rng(20240806);
    for (int round = 0; round < 400; ++round) {
        std::string text = base;
        const unsigned edits = 1 + rng.below(4);
        for (unsigned e = 0; e < edits; ++e) {
            if (text.empty())
                break;
            const size_t pos = rng.below(text.size());
            switch (rng.below(3)) {
              case 0:
                text[pos] = static_cast<char>(rng.below(256));
                break;
              case 1:
                text.insert(pos, 1, static_cast<char>(rng.below(256)));
                break;
              default:
                text.erase(pos, 1);
                break;
            }
        }
        const auto parsed = ResultStore::parseRecord(text);
        if (parsed.ok()) {
            // A mutation that still parses must round-trip cleanly.
            EXPECT_TRUE(
                ResultStore::parseRecord(ResultStore::serializeRecord(
                                             parsed.value().first,
                                             parsed.value().second))
                    .ok());
        }
    }
}

// ------------------------------------------------------------- protocol

QuerySpec
sampleQuery()
{
    QuerySpec query;
    query.workspace.benchmark = "md5";
    query.workspace.ecc = true;
    query.structure = "Regfile";
    query.delays = {0.1, 0.1 + 0.2, 0.9}; // non-representable doubles
    query.runSavf = true;
    query.sampling.cycleFraction = 0.07;
    query.sampling.maxInjectionCycles = 5;
    query.sampling.maxWires = 123;
    query.sampling.maxFlops = 45;
    query.sampling.seed = 99;
    query.sampling.watchdogSlack = 111;
    query.sampling.injectionTimeoutMs = 250.5;
    query.sampling.maxFailureRate = 0.125;
    return query;
}

TEST(QuerySpecText, RoundTripsBitExactly)
{
    const QuerySpec query = sampleQuery();
    const auto parsed = parseQuerySpec(serializeQuerySpec(query));
    ASSERT_TRUE(parsed.ok()) << parsed.error().what();
    const QuerySpec &got = parsed.value();
    EXPECT_EQ(got.workspace, query.workspace);
    EXPECT_EQ(got.structure, query.structure);
    ASSERT_EQ(got.delays.size(), query.delays.size());
    for (size_t i = 0; i < query.delays.size(); ++i)
        EXPECT_EQ(got.delays[i], query.delays[i]); // bit-exact hexfloats
    EXPECT_EQ(got.runSavf, query.runSavf);
    EXPECT_EQ(got.sampling.cycleFraction, query.sampling.cycleFraction);
    EXPECT_EQ(got.sampling.maxWires, query.sampling.maxWires);
    EXPECT_EQ(got.sampling.seed, query.sampling.seed);
    EXPECT_EQ(got.sampling.maxFailureRate,
              query.sampling.maxFailureRate);
    // Serialization is canonical: re-serializing reproduces the bytes.
    EXPECT_EQ(serializeQuerySpec(got), serializeQuerySpec(query));
}

TEST(QuerySpecText, RejectsDamage)
{
    const std::string good = serializeQuerySpec(sampleQuery());
    EXPECT_FALSE(parseQuerySpec("").ok());
    EXPECT_FALSE(parseQuerySpec(good + " trailing").ok());
    EXPECT_FALSE(
        parseQuerySpec(good.substr(0, good.size() / 2)).ok());
    EXPECT_FALSE(parseQuerySpec("md5 9 0 ALU 0 0").ok());
}

TEST(ClientFrames, VerbsRoundTrip)
{
    const auto query = parseClientFrame(makeQueryFrame(sampleQuery()));
    ASSERT_TRUE(query.ok());
    EXPECT_EQ(query.value().verb, ClientFrame::Verb::Query);
    EXPECT_EQ(query.value().query.structure, "Regfile");

    for (const char *verb : {"cancel", "stats", "quit"})
        EXPECT_TRUE(parseClientFrame(verb).ok()) << verb;
    EXPECT_FALSE(parseClientFrame("").ok());
    EXPECT_FALSE(parseClientFrame("launch missiles").ok());
    EXPECT_FALSE(parseClientFrame("query not a spec").ok());
}

TEST(ServerReplies, RoundTrip)
{
    ServerReply ok;
    ok.ok = true;
    ok.tag = "report";
    ok.body = "{\"results\":[1, 2, 3]} with spaces";
    const auto ok_parsed = parseServerReply(serializeServerReply(ok));
    ASSERT_TRUE(ok_parsed.ok());
    EXPECT_TRUE(ok_parsed.value().ok);
    EXPECT_EQ(ok_parsed.value().tag, "report");
    EXPECT_EQ(ok_parsed.value().body, ok.body);

    ServerReply err;
    err.errorKind = "not-found";
    err.message = "unknown structure 'Bogus'";
    const auto err_parsed = parseServerReply(serializeServerReply(err));
    ASSERT_TRUE(err_parsed.ok());
    EXPECT_FALSE(err_parsed.value().ok);
    EXPECT_EQ(err_parsed.value().errorKind, "not-found");
    EXPECT_EQ(err_parsed.value().message, err.message);

    EXPECT_FALSE(parseServerReply("").ok());
    EXPECT_FALSE(parseServerReply("ok bogus-tag x").ok());
    EXPECT_FALSE(parseServerReply("maybe report x").ok());
}

TEST(UnixSocket, FramesCrossTheSocket)
{
    const std::string path = tempPath("sock");
    ::unlink(path.c_str());
    const int listen_fd = listenUnix(path);

    std::thread server([listen_fd] {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        ASSERT_GE(fd, 0);
        std::string payload;
        while (readFrameFd(fd, payload))
            writeFrameFd(fd, "echo " + payload);
        ::close(fd);
    });

    const int fd = connectUnix(path);
    writeFrameFd(fd, makeQueryFrame(sampleQuery()));
    std::string reply;
    ASSERT_TRUE(readFrameFd(fd, reply));
    EXPECT_EQ(reply, "echo " + makeQueryFrame(sampleQuery()));
    ::close(fd);
    server.join();
    ::close(listen_fd);
    ::unlink(path.c_str());
}

// ------------------------------------------------------ shared flags

/** The shared query flags over @p args (argv[0] is implied), with
 *  every token required to be one of them. */
QuerySpec
parseQueryArgs(const std::vector<std::string> &args)
{
    std::vector<std::string> storage = {"tool"};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    const int argc = static_cast<int>(argv.size());
    QuerySpec query = defaultQuery();
    for (int i = 1; i < argc; ++i) {
        EXPECT_TRUE(parseQueryFlag(argc, argv.data(), i, query))
            << "not a query flag: " << argv[i];
    }
    return query;
}

/** The message the shared parser rejects @p args with; empty when it
 *  accepts them. */
std::string
rejection(const std::vector<std::string> &args)
{
    try {
        parseQueryArgs(args);
    } catch (const DavfError &error) {
        EXPECT_EQ(error.kind(), ErrorKind::BadArgument);
        return error.what();
    }
    return "";
}

/** The delays of LO:HI:STEP as the front ends expanded them before
 *  sharing one parser, as hexfloat text. */
std::vector<std::string>
accumulatedDelays(double lo, double hi, double step)
{
    std::vector<std::string> out;
    for (double d = lo; d <= hi + 1e-9; d += step)
        out.push_back(hexDouble(d));
    return out;
}

std::vector<std::string>
hexDelays(const std::vector<double> &delays)
{
    std::vector<std::string> out;
    for (double d : delays)
        out.push_back(hexDouble(d));
    return out;
}

TEST(QueryFlags, DefaultsAreTheFrontEnds)
{
    const QuerySpec query = parseQueryArgs({});
    EXPECT_EQ(query.workspace, WorkspaceSpec{});
    EXPECT_EQ(query.workspace.benchmark, "libstrstr");
    EXPECT_EQ(query.structure, "ALU");
    EXPECT_EQ(hexDelays(query.delays), accumulatedDelays(0.1, 0.9, 0.2));
    EXPECT_EQ(query.delays.size(), 5u);
    EXPECT_FALSE(query.runSavf);
    EXPECT_FALSE(query.sampling.attribution);
    EXPECT_EQ(query.sampling.maxInjectionCycles, 8u);
    EXPECT_EQ(query.sampling.maxWires, 400u);
    EXPECT_EQ(query.sampling.maxFlops, 96u);
    EXPECT_EQ(query.sampling.seed, 1u);
    EXPECT_EQ(query.sampling.injectionTimeoutMs, 0.0);
    EXPECT_EQ(query.sampling.maxFailureRate, 0.05);
}

TEST(QueryFlags, EveryFlagSetsItsField)
{
    const QuerySpec query = parseQueryArgs(
        {"--benchmark", "popcount", "--ecc", "--sta-period",
         "--structure", "Regfile", "--delays", "0.3:0.9:0.2", "--savf",
         "--attribution", "--cycles", "3", "--wires", "0", "--flops",
         "7", "--seed", "42", "--timeout-ms", "12.5",
         "--max-failure-rate", "1"});
    EXPECT_EQ(query.workspace.benchmark, "popcount");
    EXPECT_TRUE(query.workspace.ecc);
    EXPECT_TRUE(query.workspace.staPeriod);
    EXPECT_EQ(query.structure, "Regfile");
    EXPECT_EQ(hexDelays(query.delays), accumulatedDelays(0.3, 0.9, 0.2));
    EXPECT_TRUE(query.runSavf);
    EXPECT_TRUE(query.sampling.attribution);
    EXPECT_EQ(query.sampling.maxInjectionCycles, 3u);
    EXPECT_EQ(query.sampling.maxWires, 0u);
    EXPECT_EQ(query.sampling.maxFlops, 7u);
    EXPECT_EQ(query.sampling.seed, 42u);
    EXPECT_EQ(query.sampling.injectionTimeoutMs, 12.5);
    EXPECT_EQ(query.sampling.maxFailureRate, 1.0);

    // A tool's own flags are left to the tool.
    std::string tool = "tool";
    std::string threads = "--threads";
    std::string two = "2";
    char *argv[] = {tool.data(), threads.data(), two.data()};
    int i = 1;
    QuerySpec untouched = defaultQuery();
    EXPECT_FALSE(parseQueryFlag(3, argv, i, untouched));
    EXPECT_EQ(i, 1);
    WorkspaceSpec spec;
    EXPECT_FALSE(parseWorkspaceFlag(3, argv, i, spec));
}

TEST(QueryFlags, RejectionsKeepTheirMessages)
{
    EXPECT_EQ(rejection({"--delays", "0.1:0.9"}),
              "--delays expects LO:HI:STEP, got '0.1:0.9'");
    EXPECT_EQ(rejection({"--delays", "0.1:0.5:0.1:0.2"}),
              "--delays expects LO:HI:STEP, got '0.1:0.5:0.1:0.2'");
    EXPECT_EQ(rejection({"--delays", "0.9:0.1:0.2"}),
              "--delays range is inverted: 0.9:0.1:0.2");
    EXPECT_EQ(rejection({"--delays", "-0.1:0.5:0.2"}),
              "--delays fractions must lie in [0, 1]: -0.1:0.5:0.2");
    EXPECT_EQ(rejection({"--delays", "0.1:1.5:0.2"}),
              "--delays fractions must lie in [0, 1]: 0.1:1.5:0.2");
    EXPECT_EQ(rejection({"--delays", "0.1:0.5:0"}),
              "--delays STEP must be > 0: 0.1:0.5:0");
    EXPECT_EQ(rejection({"--delays", "0.1:0.5:-0.1"}),
              "--delays STEP must be > 0: 0.1:0.5:-0.1");
    EXPECT_EQ(rejection({"--delays", "0.1:x:0.2"}),
              "--delays HI: trailing characters after number in 'x'");
    EXPECT_EQ(rejection({"--cycles", "4x"}),
              "--cycles: trailing characters after number in '4x'");
    EXPECT_EQ(rejection({"--seed", "-1"}),
              "--seed expects an unsigned integer, got '-1'");
    EXPECT_EQ(rejection({"--max-failure-rate", "1.5"}),
              "--max-failure-rate must lie in [0, 1]");
    EXPECT_EQ(rejection({"--max-failure-rate", "-0.1"}),
              "--max-failure-rate must lie in [0, 1]");
    EXPECT_EQ(rejection({"--timeout-ms", "-1"}),
              "--timeout-ms must be >= 0");
    EXPECT_EQ(rejection({"--wires"}), "--wires expects a value");
    EXPECT_EQ(rejection({"--benchmark"}), "--benchmark expects a value");
}

TEST(QueryFlags, DelayExpansionIsTheAccumulatingLoop)
{
    EXPECT_EQ(hexDelays(parseDelayRange("0.1:0.9:0.1")),
              accumulatedDelays(0.1, 0.9, 0.1));
    EXPECT_EQ(parseDelayRange("0.1:0.9:0.1").size(), 9u);
    EXPECT_EQ(hexDelays(parseDelayRange("0.3:0.9:0.2")),
              accumulatedDelays(0.3, 0.9, 0.2));
    EXPECT_EQ(parseDelayRange("0.3:0.9:0.2").size(), 4u);
    EXPECT_EQ(parseDelayRange("0.5:0.5:0.1"), std::vector<double>{0.5});
}

TEST(QueryFlags, OneArgvIsOneQueryAndOneSetOfStoreKeys)
{
    // davf_run runs the parsed query as queryCampaign(); davf_client
    // sends it to davf_serve, whose scheduler looks its shards up under
    // the query's own sampling. Both must name the same query and
    // derive the same store keys.
    const std::vector<std::string> args = {
        "--benchmark", "popcount", "--structure", "ALU", "--delays",
        "0.1:0.9:0.1", "--cycles", "4", "--wires", "24", "--seed", "3",
        "--max-failure-rate", "0.25", "--attribution"};
    const QuerySpec run_query = parseQueryArgs(args);
    const Result<ClientFrame> served =
        parseClientFrame(makeQueryFrame(parseQueryArgs(args)));
    ASSERT_TRUE(served.ok()) << served.error().what();
    const QuerySpec &serve_query = served.value().query;
    EXPECT_EQ(serializeQuerySpec(serve_query), serializeQuerySpec(run_query));

    const CampaignOptions campaign = queryCampaign(run_query);
    EXPECT_EQ(campaign.benchmark, "popcount");
    EXPECT_EQ(campaign.structureLabel, "");
    EXPECT_EQ(campaign.structures, std::vector<std::string>{"ALU"});
    EXPECT_EQ(hexDelays(campaign.delays), hexDelays(run_query.delays));
    EXPECT_EQ(campaign.maxFailureRate, 0.25);
    for (size_t k = 0; k < campaign.delays.size(); ++k) {
        // The campaign keys a shard under its effective sampling: the
        // query's, with the campaign's failure rate.
        ShardSpec from_run;
        from_run.structure = campaign.structures[0];
        from_run.sampling = campaign.sampling;
        from_run.sampling.maxFailureRate = campaign.maxFailureRate;
        from_run.delayFraction = campaign.delays[k];
        from_run.cycle = 17;
        ShardSpec from_serve;
        from_serve.structure = serve_query.structure;
        from_serve.sampling = serve_query.sampling;
        from_serve.delayFraction = serve_query.delays[k];
        from_serve.cycle = 17;
        EXPECT_EQ(shardStoreKey("fp", from_run),
                  shardStoreKey("fp", from_serve));
    }

    QuerySpec ecc = run_query;
    ecc.workspace.ecc = true;
    EXPECT_EQ(queryCampaign(ecc).structureLabel, " (ECC)");
}

TEST(WorkspaceFlags, UnknownBenchmarkIsAUsageError)
{
    EXPECT_EQ(rejection({"--benchmark", "nosuch"}),
              "--benchmark: unknown benchmark 'nosuch' "
              "(davf_run --list names them)");
    EXPECT_EQ(rejection({"--benchmark", "popcount"}), "");
}

TEST(HiddenWorkerFlags, ParseAndCheck)
{
    auto parse = [](std::vector<std::string> args, WorkerFlags &flags) {
        args.insert(args.begin(), "tool");
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        const int argc = static_cast<int>(argv.size());
        for (int i = 1; i < argc; ++i)
            EXPECT_TRUE(flags.parse(argc, argv.data(), i)) << argv[i];
    };
    WorkerFlags flags;
    parse({"--worker-shard", "--worker-period", "0x1p+10"}, flags);
    EXPECT_TRUE(flags.shard);
    EXPECT_EQ(flags.period, 1024.0);
    EXPECT_FALSE(flags.workspaceOptions(3).measurePeriod);
    EXPECT_EQ(flags.workspaceOptions(3).threads, 3u);
    EXPECT_NO_THROW(flags.check(WorkspaceSpec{}));
    WorkspaceSpec sta;
    sta.staPeriod = true;
    EXPECT_THROW(flags.check(sta), DavfError);

    WorkerFlags parent;
    parse({"--worker-period", "0x1p+10"}, parent);
    EXPECT_THROW(parent.check(WorkspaceSpec{}), DavfError);
    WorkerFlags bad;
    EXPECT_THROW(parse({"--worker-period", "1155.7"}, bad), DavfError);
    EXPECT_TRUE(WorkerFlags{}.workspaceOptions(0).measurePeriod);
}

// ------------------------------------------------------------ scheduler

/** A cheap RandomCircuit engine + store + scheduler. */
class SchedulerFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        circuit = test::makeRandomCircuit(11, 8, 40, 12);
        engine = std::make_unique<VulnerabilityEngine>(
            *circuit.netlist, CellLibrary::defaultLibrary(),
            *circuit.workload);
        registry =
            std::make_unique<StructureRegistry>(*circuit.netlist);
        registry->add("Rnd", "rnd/");

        storeDir = tempPath("sched");
        std::filesystem::remove_all(storeDir);
        store = std::make_unique<ResultStore>(ResultStore::Options{
            .dir = storeDir, .memCapacity = 64});
        scheduler = makeScheduler(*store);
    }

    /** A scheduler with the fixture's engine and fingerprint. */
    std::unique_ptr<QueryScheduler>
    makeScheduler(ResultStore &on) const
    {
        QueryScheduler::Options options;
        options.benchmark = "rnd";
        options.threads = 2;
        return std::make_unique<QueryScheduler>(*engine, *registry,
                                                "test-fp", on, options);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(storeDir);
    }

    QuerySpec
    query() const
    {
        QuerySpec q;
        q.structure = "Rnd";
        q.delays = {0.3, 0.6};
        q.sampling.maxInjectionCycles = 4;
        q.sampling.seed = 7;
        return q;
    }

    size_t
    numShards(const QuerySpec &q) const
    {
        return q.delays.size()
            * engine->injectionCycles(q.sampling).size();
    }

    test::RandomCircuit circuit;
    std::unique_ptr<VulnerabilityEngine> engine;
    std::unique_ptr<StructureRegistry> registry;
    std::string storeDir;
    std::unique_ptr<ResultStore> store;
    std::unique_ptr<QueryScheduler> scheduler;
};

TEST_F(SchedulerFixture, ColdComputesWarmHitsByteIdentically)
{
    const QuerySpec q = query();
    const size_t shards = numShards(q);
    ASSERT_GT(shards, 0u);

    auto cold = scheduler->run(q);
    ASSERT_TRUE(cold.ok()) << cold.error().what();
    EXPECT_EQ(cold.value().storeMisses, shards);
    EXPECT_EQ(cold.value().storeHits, 0u);

    auto warm = scheduler->run(q);
    ASSERT_TRUE(warm.ok()) << warm.error().what();
    EXPECT_EQ(warm.value().storeHits, shards);
    EXPECT_EQ(warm.value().storeMisses, 0u);
    EXPECT_EQ(warm.value().reportJson, cold.value().reportJson);

    const SchedulerStats stats = scheduler->stats();
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.shardsComputed, shards);
    EXPECT_EQ(stats.shardHits, shards);
}

TEST_F(SchedulerFixture, AMissingQueryReadsEachStoreHitOnce)
{
    // A query sharing two of its three delays with an earlier one: the
    // lock-free pass reads the shared shards, and the campaign that
    // computes the third delay takes them from the pass instead of
    // reading them from the store again.
    ASSERT_TRUE(scheduler->run(query()).ok());
    QuerySpec wider = query();
    wider.delays.push_back(0.9);
    const size_t cycles = engine->injectionCycles(wider.sampling).size();
    ASSERT_GT(cycles, 0u);

    const StoreStats before = store->stats();
    auto reply = scheduler->run(wider);
    ASSERT_TRUE(reply.ok()) << reply.error().what();
    const StoreStats after = store->stats();
    EXPECT_EQ(reply.value().storeHits, 2 * cycles);
    EXPECT_EQ(reply.value().storeMisses, cycles);
    EXPECT_EQ(after.memoryHits + after.diskHits - before.memoryHits
                  - before.diskHits,
              2 * cycles);
    const SchedulerStats stats = scheduler->stats();
    EXPECT_EQ(stats.shardHits, 2 * cycles);
    EXPECT_EQ(stats.inFlightHits, 0u);

    // The same bytes as a cold evaluation of the wider query.
    const std::string cold_dir = tempPath("sched-cold");
    std::filesystem::remove_all(cold_dir);
    {
        ResultStore cold_store(
            ResultStore::Options{.dir = cold_dir, .memCapacity = 64});
        auto cold = makeScheduler(cold_store)->run(wider);
        ASSERT_TRUE(cold.ok()) << cold.error().what();
        EXPECT_EQ(reply.value().reportJson, cold.value().reportJson);
    }
    std::filesystem::remove_all(cold_dir);
}

TEST_F(SchedulerFixture, MatchesADirectEngineEvaluation)
{
    QuerySpec q = query();
    q.runSavf = true;

    auto reply = scheduler->run(q);
    ASSERT_TRUE(reply.ok()) << reply.error().what();

    // The expected report, computed straight on the engine with the
    // same sampling (threads don't affect results).
    SamplingConfig sampling = q.sampling;
    sampling.threads = 1;
    std::vector<ReportRow> rows;
    for (double d : q.delays) {
        ReportRow row;
        row.kind = "davf";
        row.benchmark = "rnd";
        row.structure = "Rnd";
        row.delayFraction = d;
        row.davf =
            engine->delayAvf(*registry->find("Rnd"), d, sampling);
        rows.push_back(std::move(row));
    }
    ReportRow savf_row;
    savf_row.kind = "savf";
    savf_row.benchmark = "rnd";
    savf_row.structure = "Rnd";
    savf_row.savf = engine->savf(*registry->find("Rnd"), sampling);
    rows.push_back(std::move(savf_row));

    EXPECT_EQ(reply.value().reportJson, reportJson(rows));
}

TEST_F(SchedulerFixture, SavfShardIsCachedToo)
{
    QuerySpec q = query();
    q.delays.clear();
    q.runSavf = true;

    auto cold = scheduler->run(q);
    ASSERT_TRUE(cold.ok()) << cold.error().what();
    EXPECT_EQ(cold.value().storeMisses, 1u);

    auto warm = scheduler->run(q);
    ASSERT_TRUE(warm.ok()) << warm.error().what();
    EXPECT_EQ(warm.value().storeHits, 1u);
    EXPECT_EQ(warm.value().reportJson, cold.value().reportJson);
}

TEST_F(SchedulerFixture, ConcurrentIdenticalQueriesComputeEachShardOnce)
{
    const QuerySpec q = query();
    const size_t shards = numShards(q);

    std::string bodies[2];
    std::thread threads[2];
    std::atomic<bool> failed{false};
    for (int t = 0; t < 2; ++t) {
        threads[t] = std::thread([&, t] {
            auto reply = scheduler->run(q);
            if (reply.ok())
                bodies[t] = reply.value().reportJson;
            else
                failed = true;
        });
    }
    threads[0].join();
    threads[1].join();

    ASSERT_FALSE(failed.load());
    EXPECT_FALSE(bodies[0].empty());
    EXPECT_EQ(bodies[0], bodies[1]);

    // The in-flight dedupe: every shard was simulated exactly once;
    // the other client's copies came from the store — either as plain
    // hits or, when it raced the compute, as in-flight hits, which are
    // a subset of the shard hits.
    const SchedulerStats stats = scheduler->stats();
    EXPECT_EQ(stats.shardsComputed, shards);
    EXPECT_EQ(stats.shardHits + stats.shardsComputed, 2 * shards);
    EXPECT_LE(stats.inFlightHits, stats.shardHits);
}

TEST_F(SchedulerFixture, AllHitQueryDoesNotWaitForTheComputeLock)
{
    // A tap that parks every attribution pass until released: a query
    // with attribution on then holds the compute lock (it is inside
    // delayAvf) for as long as the test wants.
    class ParkingTap : public test::CycleAttributionTap
    {
      public:
        InFlight
        inFlight(uint64_t cycle) override
        {
            if (!entered.exchange(true))
                parked.set_value();
            release.wait();
            return CycleAttributionTap::inFlight(cycle);
        }

        std::atomic<bool> entered{false};
        std::promise<void> parked;
        std::shared_future<void> release;
    };
    ParkingTap tap;
    std::promise<void> release;
    tap.release = release.get_future().share();
    engine->setAttributionTap(&tap);

    const QuerySpec warm = query();
    auto cold = scheduler->run(warm);
    ASSERT_TRUE(cold.ok()) << cold.error().what();

    QuerySpec attributed = warm;
    attributed.sampling.attribution = true;
    std::thread computing([&] {
        auto reply = scheduler->run(attributed);
        EXPECT_TRUE(reply.ok()) << reply.error().what();
    });
    // Bounded waits only turn a regression into a failure, not a hang.
    const auto bound = std::chrono::seconds(30);
    const bool parked = tap.parked.get_future().wait_for(bound)
        == std::future_status::ready;

    // The compute lock is held now; an all-hit query must still return.
    std::future<Result<QueryScheduler::QueryReply>> hit;
    bool returned = false;
    if (parked) {
        hit = std::async(std::launch::async,
                         [&] { return scheduler->run(warm); });
        returned = hit.wait_for(bound) == std::future_status::ready;
    }
    release.set_value();
    computing.join();
    engine->setAttributionTap(nullptr);

    ASSERT_TRUE(parked) << "the attributed query never reached the tap";
    ASSERT_TRUE(returned) << "an all-hit query waited for the compute lock";
    auto reply = hit.get();
    ASSERT_TRUE(reply.ok()) << reply.error().what();
    EXPECT_EQ(reply.value().storeHits, numShards(warm));
    EXPECT_EQ(reply.value().reportJson, cold.value().reportJson);
}

TEST_F(SchedulerFixture, AFreshSchedulerServesFromThePersistedStore)
{
    const QuerySpec q = query();
    auto cold = scheduler->run(q);
    ASSERT_TRUE(cold.ok()) << cold.error().what();

    // New store + scheduler over the same directory and fingerprint
    // (read-only: the fixture's store still owns it): everything is a
    // (disk) hit and the bytes match.
    ResultStore fresh_store(
        ResultStore::Options{.dir = storeDir, .memCapacity = 64});
    auto fresh = makeScheduler(fresh_store);
    auto warm = fresh->run(q);
    ASSERT_TRUE(warm.ok()) << warm.error().what();
    EXPECT_EQ(warm.value().storeHits, numShards(q));
    EXPECT_EQ(warm.value().reportJson, cold.value().reportJson);
    EXPECT_GT(fresh_store.stats().diskHits, 0u);
}

TEST_F(SchedulerFixture, LegacyDirectoryIsMigratedAtOpen)
{
    const QuerySpec q = query();
    auto cold = scheduler->run(q);
    ASSERT_TRUE(cold.ok()) << cold.error().what();

    // Rewrite every shard record of the query as a legacy per-file
    // record (r-*.rec, what older releases wrote) in an empty dir.
    std::vector<std::pair<std::string, std::string>> records;
    ShardSpec spec;
    spec.kind = ShardSpec::Kind::Cycle;
    spec.structure = q.structure;
    spec.sampling = q.sampling;
    for (double d : q.delays) {
        spec.delayFraction = d;
        for (uint64_t cycle : engine->injectionCycles(q.sampling)) {
            spec.cycle = cycle;
            const std::string key = scheduler->shardKey(spec);
            const auto payload = store->lookup(key);
            ASSERT_TRUE(payload.has_value()) << key;
            records.emplace_back(key, *payload);
        }
    }
    ASSERT_EQ(records.size(), numShards(q));
    scheduler.reset();
    store.reset();
    std::filesystem::remove_all(storeDir);
    std::filesystem::create_directories(storeDir);
    for (const auto &[key, payload] : records) {
        std::ofstream(storeDir + "/"
                          + davf::store::legacyRecordFileName(key),
                      std::ios::binary)
            << davf::store::serializeRecordText(key, payload);
    }

    // A fresh owner migrates them at open and serves every shard.
    ResultStore fresh_store(
        ResultStore::Options{.dir = storeDir, .memCapacity = 64});
    auto fresh = makeScheduler(fresh_store);
    auto warm = fresh->run(q);
    ASSERT_TRUE(warm.ok()) << warm.error().what();
    EXPECT_EQ(warm.value().storeHits, numShards(q));
    EXPECT_EQ(warm.value().storeMisses, 0u);
    EXPECT_EQ(warm.value().reportJson, cold.value().reportJson);
    for (const auto &entry :
         std::filesystem::directory_iterator(storeDir)) {
        const std::string name = entry.path().filename().string();
        EXPECT_FALSE(davf::store::isLegacyRecordName(name)) << name;
    }
}

TEST_F(SchedulerFixture, ADifferentFingerprintMissesTheStore)
{
    const QuerySpec q = query();
    ASSERT_TRUE(scheduler->run(q).ok());

    QueryScheduler::Options options;
    options.benchmark = "rnd";
    QueryScheduler other(*engine, *registry, "other-fp", *store,
                         options);
    auto reply = other.run(q);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().storeHits, 0u);
    EXPECT_EQ(reply.value().storeMisses, numShards(q));
}

TEST_F(SchedulerFixture, CorruptRecordIsRecomputedAndRepaired)
{
    const QuerySpec q = query();
    auto cold = scheduler->run(q);
    ASSERT_TRUE(cold.ok());

    // Drop the memory tier and hand the directory to a fresh owning
    // store, then damage one shard record on disk.
    scheduler.reset();
    store.reset();
    ResultStore fresh_store(
        ResultStore::Options{.dir = storeDir, .memCapacity = 64});
    auto fresh = makeScheduler(fresh_store);
    ShardSpec spec;
    spec.kind = ShardSpec::Kind::Cycle;
    spec.structure = q.structure;
    spec.delayFraction = q.delays[0];
    spec.cycle = engine->injectionCycles(q.sampling)[0];
    spec.sampling = q.sampling;
    const std::string segments = storeDir + "/" + davf::store::kDataFileName;
    std::ifstream in(segments, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const size_t pos = bytes.find("key " + fresh->shardKey(spec) + "\n");
    ASSERT_NE(pos, std::string::npos);
    const size_t payload = bytes.find("\npayload ", pos) + 12;
    std::fstream file(segments,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(payload));
    file.put(static_cast<char>(bytes[payload] ^ 0x01));
    file.close();

    auto warm = fresh->run(q);
    ASSERT_TRUE(warm.ok()) << warm.error().what();
    EXPECT_EQ(warm.value().storeMisses, 1u);
    EXPECT_EQ(warm.value().storeHits, numShards(q) - 1);
    EXPECT_EQ(warm.value().reportJson, cold.value().reportJson);
    // >= 1: concurrent shard lookups may both read the damaged record
    // before the first one drops its slot.
    EXPECT_GE(fresh_store.stats().corruptRecords, 1u);

    // The rewrite repaired the record: a second pass is all hits, and
    // so is a third store that reads it back from disk.
    auto repaired = fresh->run(q);
    ASSERT_TRUE(repaired.ok());
    EXPECT_EQ(repaired.value().storeHits, numShards(q));
    fresh.reset();
    ResultStore reread(ResultStore::Options{.dir = storeDir});
    auto reread_scheduler = makeScheduler(reread);
    auto reread_reply = reread_scheduler->run(q);
    ASSERT_TRUE(reread_reply.ok());
    EXPECT_EQ(reread_reply.value().storeHits, numShards(q));
    EXPECT_EQ(reread.stats().corruptRecords, 0u);
}

TEST_F(SchedulerFixture, UnknownStructureIsNotFound)
{
    QuerySpec q = query();
    q.structure = "Bogus";
    auto reply = scheduler->run(q);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.error().kind(), ErrorKind::NotFound);
}

TEST_F(SchedulerFixture, CancelStopsTheQuery)
{
    const std::atomic<bool> cancel{true};
    auto reply = scheduler->run(query(), &cancel);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.error().kind(), ErrorKind::Timeout);
    EXPECT_GE(scheduler->stats().cancelled, 1u);
}

TEST_F(SchedulerFixture, StatsJsonCarriesTheCounters)
{
    ASSERT_TRUE(scheduler->run(query()).ok());
    const std::string json = scheduler->statsJson();
    EXPECT_NE(json.find("\"queries\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"shards_computed\":"), std::string::npos);
    EXPECT_NE(json.find("\"store\":{"), std::string::npos);
    EXPECT_NE(json.find("\"latency_ms\":{"), std::string::npos);
}

TEST_F(SchedulerFixture, ShardKeyEmbedsTheFingerprint)
{
    ShardSpec spec;
    spec.structure = "Rnd";
    const std::string key = scheduler->shardKey(spec);
    EXPECT_EQ(key.rfind("test-fp ", 0), 0u) << key;
}

// ----------------------------------------------------- report emitters

TEST(ReportJson, RowsCarryTheKindDiscriminator)
{
    ReportRow davf_row;
    davf_row.kind = "davf";
    davf_row.benchmark = "md5";
    davf_row.structure = "ALU";
    davf_row.delayFraction = 0.5;
    ReportRow savf_row;
    savf_row.kind = "savf";
    savf_row.benchmark = "md5";
    savf_row.structure = "ALU";

    const std::string json = reportJson({davf_row, savf_row});
    EXPECT_EQ(json.rfind("{\"schema\":\"davf-report/v1\",\"results\":[",
                         0),
              0u)
        << json;
    EXPECT_NE(json.find("{\"kind\":\"davf\",\"benchmark\":\"md5\""),
              std::string::npos);
    EXPECT_NE(json.find("{\"kind\":\"savf\",\"benchmark\":\"md5\""),
              std::string::npos);
    // Deterministic: equal rows, equal bytes.
    EXPECT_EQ(json, reportJson({davf_row, savf_row}));
}

} // namespace
} // namespace davf::service
