/**
 * @file
 * Tests for per-instruction root-cause attribution (src/analysis/ and
 * its SamplingConfig::attribution plumbing — docs/ANALYSIS.md):
 *
 *  - the RV32I(+M) disassembler used for attribution labels
 *    (round-tripped through the repo's own assembler, so the two can
 *    never drift on operand syntax);
 *  - the attribution section of the outcome codec: outcome sections
 *    round-trip bit-exactly, percent-encoded mnemonics survive spaces
 *    and empty strings, damage is rejected, and unknown trailing
 *    tokens are left for the caller (the worker-reply rusage suffix);
 *  - the shard/query spec grammar: the trailing "attr" token
 *    round-trips, attribution-off text is byte-identical to the
 *    pre-flag grammar (the store-key stability guarantee), and junk
 *    after the token is rejected;
 *  - engine-level identity on a real IbexMini workspace: the
 *    attribution table is bit-identical across thread counts, enabling
 *    attribution does not perturb any non-attribution counter, and an
 *    interrupted --attribution campaign rerun over its result store at
 *    a different thread count reproduces the uninterrupted outcomes,
 *    CSV, and attribution CSV byte-for-byte (both interruption
 *    directions);
 *  - the real davf_run: a warm --attribution rerun over a result store
 *    prints the same tables and attribution CSV, computing nothing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/analysis/disasm.hh"
#include "src/campaign/campaign.hh"
#include "src/core/report.hh"
#include "src/core/shard.hh"
#include "src/core/vulnerability.hh"
#include "src/isa/assembler.hh"
#include "src/service/protocol.hh"
#include "src/service/result_store.hh"
#include "src/service/scheduler.hh"
#include "src/service/workspace.hh"
#include "src/util/parse.hh"
#include "tests/helpers.hh"

namespace davf {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "davf_test_"
        + std::to_string(::getpid()) + "_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(file)) << path;
    std::ostringstream os;
    os << file.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------- disasm

TEST(Disasm, RoundTripsThroughTheAssembler)
{
    // Assemble canonical text and expect the disassembler to
    // reproduce it verbatim — operand order, the mem-operand
    // "offset(base)" form, and signed branch/jump byte offsets.
    const std::vector<std::string> lines = {
        "lw x1, 8(x2)",        "addi x5, x0, 42",
        "add x3, x1, x5",      "sub x3, x3, x1",
        "sw x3, 12(x2)",       "slli x6, x5, 3",
        "srai x6, x6, 1",      "mul x7, x5, x6",
        "andi x8, x7, 255",    "xor x9, x8, x7",
    };
    std::string source;
    for (const std::string &line : lines)
        source += line + "\n";
    const std::vector<uint32_t> image = assemble(source);
    ASSERT_EQ(image.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(analysis::disassemble(image[i]), lines[i]) << i;
}

TEST(Disasm, BranchesAndJumpsUseSignedByteOffsets)
{
    const std::vector<uint32_t> image = assemble("top:\n"
                                                 "  addi x5, x5, -1\n"
                                                 "  beq x5, x0, top\n"
                                                 "  jal x1, top\n");
    ASSERT_EQ(image.size(), 3u);
    EXPECT_EQ(analysis::disassemble(image[0]), "addi x5, x5, -1");
    EXPECT_EQ(analysis::disassemble(image[1]), "beq x5, x0, -4");
    EXPECT_EQ(analysis::disassemble(image[2]), "jal x1, -8");
}

TEST(Disasm, UnknownWordsRenderAsData)
{
    // The table must stay total over whatever the image holds.
    EXPECT_EQ(analysis::disassemble(0xffffffffu), ".word 0xffffffff");
    EXPECT_EQ(analysis::disassemble(0u), ".word 0x00000000");
    EXPECT_EQ(analysis::disassemble(0x00000073u), "ecall");
    // M-extension division (not in the assembler's source dialect).
    EXPECT_EQ(analysis::disassemble(0x025353b3u), "divu x7, x6, x5");
}

// ------------------------------------------------ attr codec grammar

InjectionCycleOutcome
outcomeWithAttr()
{
    InjectionCycleOutcome out;
    out.cycle = 17;
    out.injections = 40;
    out.errorInjections = 9;
    out.delayAce = 3;
    out.sdc = 2;
    out.due = 1;
    out.uniqueGroupSims = 9;
    out.wireDyn = {1, 0, 1};
    out.wireAce = {1, 0, 0};
    out.attr.valid = true;
    out.attr.pc = 0x40;
    out.attr.mnemonic = "lw x1, 8(x2)";
    out.attr.events = {{0x44, "addi x5, x0, 42", "x5", 2},
                       {0x48, "sw x3, 12(x2)", "mem", 1}};
    return out;
}

TEST(AttrGrammar, OutcomeSectionRoundTripsBitExactly)
{
    const InjectionCycleOutcome out = outcomeWithAttr();
    const std::string text = serializeOutcomeFields(out);
    EXPECT_NE(text.find(" attr "), std::string::npos) << text;

    std::istringstream is(text);
    InjectionCycleOutcome back;
    ASSERT_TRUE(parseOutcomeFields(is, back)) << text;
    EXPECT_EQ(back, out);

    // Attribution off: the section is absent and the bytes match the
    // pre-flag grammar, so old store records parse and keep serving.
    InjectionCycleOutcome plain = out;
    plain.attr = CycleAttribution{};
    const std::string plain_text = serializeOutcomeFields(plain);
    EXPECT_EQ(plain_text.find("attr"), std::string::npos);
    EXPECT_EQ(text.rfind(plain_text, 0), 0u)
        << "attr must extend the line, not reshape it";
}

TEST(AttrGrammar, MnemonicsSurvivePercentEncoding)
{
    InjectionCycleOutcome out = outcomeWithAttr();
    out.attr.mnemonic = ""; // encoded as the lone "%" sentinel
    out.attr.events = {{0, "%weird 100% text%", "x1", 1},
                       {4, ".word 0xdeadbeef", "uarch", 2}};
    const std::string text = serializeOutcomeFields(out);
    EXPECT_EQ(text.find('\n'), std::string::npos) << text;

    std::istringstream is(text);
    InjectionCycleOutcome back;
    ASSERT_TRUE(parseOutcomeFields(is, back)) << text;
    EXPECT_EQ(back, out);
}

TEST(AttrGrammar, DamagedSectionsAreRejected)
{
    const std::string text = serializeOutcomeFields(outcomeWithAttr());
    // Truncations inside the attr section must never yield a
    // *different* attribution than the intact bytes: either the parse
    // fails, or it returns the full outcome, or — when the cut makes
    // the tail an unknown token the parser leaves for its caller —
    // the attribution-free outcome (the caller's trailing-token check
    // then rejects the leftover, as the scheduler's store lookup does).
    InjectionCycleOutcome plain = outcomeWithAttr();
    plain.attr = CycleAttribution{};
    const size_t attr_at = text.find(" attr ");
    ASSERT_NE(attr_at, std::string::npos);
    for (size_t len = attr_at + 1; len < text.size(); ++len) {
        std::istringstream is(text.substr(0, len));
        InjectionCycleOutcome torn;
        if (parseOutcomeFields(is, torn)) {
            EXPECT_TRUE(torn == outcomeWithAttr() || torn == plain)
                << len;
        }
    }
    // A non-numeric event count is damage.
    std::string garbled = text;
    garbled.replace(garbled.find(" attr ") + 6, 0, "x");
    std::istringstream is(garbled);
    InjectionCycleOutcome out;
    EXPECT_FALSE(parseOutcomeFields(is, out));
}

TEST(AttrGrammar, UnknownTailIsLeftForTheCaller)
{
    // The process-isolation worker reply appends a rusage suffix after
    // the outcome fields; the outcome parser must leave it unread
    // (with and without an attr section) for the supervisor to parse.
    for (const bool with_attr : {false, true}) {
        InjectionCycleOutcome out = outcomeWithAttr();
        if (!with_attr)
            out.attr = CycleAttribution{};
        std::istringstream is(serializeOutcomeFields(out)
                              + " rss 1234 0.5 0.25");
        InjectionCycleOutcome back;
        ASSERT_TRUE(parseOutcomeFields(is, back)) << with_attr;
        EXPECT_EQ(back, out);
        std::string tag;
        ASSERT_TRUE(static_cast<bool>(is >> tag)) << with_attr;
        EXPECT_EQ(tag, "rss");
    }
}

// ---------------------------------------------------- spec grammar

TEST(AttrGrammar, ShardSpecAttrTokenRoundTrips)
{
    ShardSpec spec;
    spec.structure = "ALU";
    spec.delayFraction = 0.5;
    spec.cycle = 9;
    spec.sampling.maxInjectionCycles = 4;
    spec.sampling.maxWires = 60;

    const std::string off = serializeShardSpec(spec);
    EXPECT_EQ(off.find("attr"), std::string::npos);

    spec.sampling.attribution = true;
    const std::string on = serializeShardSpec(spec);
    // Append-only extension: the attribution-off text (= the store
    // key) is byte-identical to the pre-flag grammar.
    EXPECT_EQ(on, off + " attr");

    const Result<ShardSpec> back = parseShardSpec(on);
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_TRUE(back.value().sampling.attribution);
    EXPECT_EQ(serializeShardSpec(back.value()), on);

    const Result<ShardSpec> plain = parseShardSpec(off);
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(plain.value().sampling.attribution);

    EXPECT_FALSE(parseShardSpec(on + " junk").ok());
    EXPECT_FALSE(parseShardSpec(off + " junk").ok());
}

TEST(AttrGrammar, QuerySpecAttrTokenRoundTrips)
{
    service::QuerySpec query;
    query.structure = "ALU";
    query.delays = {0.5, 0.7};
    query.sampling.maxInjectionCycles = 4;

    const std::string off = service::serializeQuerySpec(query);
    EXPECT_EQ(off.find("attr"), std::string::npos);

    query.sampling.attribution = true;
    const std::string on = service::serializeQuerySpec(query);
    EXPECT_EQ(on, off + " attr");

    const auto back = service::parseQuerySpec(on);
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_TRUE(back.value().sampling.attribution);
    EXPECT_EQ(service::serializeQuerySpec(back.value()), on);

    const auto plain = service::parseQuerySpec(off);
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(plain.value().sampling.attribution);

    EXPECT_FALSE(service::parseQuerySpec(on + " junk").ok());
}

TEST(AttrGrammar, ConfigHashSeparatesAttributionCampaigns)
{
    // Attribution changes what a campaign computes, so it must change
    // the configuration hash — but the attribution-off hash has to
    // match pre-flag releases (their quarantine records still apply),
    // which is why the token is append-only.
    CampaignOptions options;
    options.benchmark = "popcount";
    options.structures = {"ALU"};
    options.delays = {0.5};
    const std::string off = campaignConfigHash(options);
    options.sampling.attribution = true;
    const std::string on = campaignConfigHash(options);
    EXPECT_NE(on, off);
    options.sampling.attribution = false;
    EXPECT_EQ(campaignConfigHash(options), off);
}

// ------------------------------------------------- engine identity

/** One shared IbexMini workspace (built once; popcount is the
 *  smallest benchmark with a non-trivial instruction mix). */
service::Workspace &
workspace()
{
    static service::Workspace *ws = [] {
        service::WorkspaceSpec spec;
        spec.benchmark = "popcount";
        return new service::Workspace(spec);
    }();
    return *ws;
}

SamplingConfig
smallSampling()
{
    SamplingConfig config;
    config.maxInjectionCycles = 3;
    config.maxWires = 40;
    config.maxFlops = 16;
    config.seed = 1;
    config.attribution = true;
    return config;
}

/** Bit-exact comparable text form of a full DelayAVF result: every
 *  reported field, doubles as hexfloats, then the attribution table. */
std::string
resultText(const DelayAvfResult &result)
{
    std::ostringstream os;
    for (double value :
         {result.delayAvf, result.orDelayAvf, result.staticWireFraction,
          result.dynamicWireFraction, result.groupAceWireFraction}) {
        os << hexDouble(value) << ' ';
    }
    for (uint64_t value :
         {result.injections, result.staticInjections,
          result.errorInjections, result.multiBitInjections,
          result.delayAceInjections, result.orAceInjections, result.sdc,
          result.due, result.aceInterference, result.aceCompounding,
          result.skippedNoToggle, result.uniqueGroupSims,
          result.skippedErrors, uint64_t(result.wiresInjected),
          uint64_t(result.cyclesInjected)}) {
        os << value << ' ';
    }
    for (const auto &[reason, count] : result.skipReasons)
        os << reason << '=' << count << ' ';
    os << '\n' << attributionCsvRows("popcount", "ALU", 0.5, result);
    return os.str();
}

TEST(AttrEngine, TableIsBitIdenticalAcrossThreadCounts)
{
    service::Workspace &ws = workspace();
    const Structure &alu = ws.structure("ALU");

    SamplingConfig config = smallSampling();
    config.threads = 1;
    const DelayAvfResult one = ws.engine().delayAvf(alu, 0.5, config);
    config.threads = 4;
    const DelayAvfResult four = ws.engine().delayAvf(alu, 0.5, config);

    ASSERT_TRUE(one.attrValid);
    ASSERT_FALSE(one.attribution.empty());
    EXPECT_EQ(resultText(one), resultText(four));
    EXPECT_EQ(one.attribution, four.attribution);

    // The same table flows into the CSV and JSON report surfaces.
    EXPECT_EQ(attributionCsvRows("popcount", "ALU", 0.5, one),
              attributionCsvRows("popcount", "ALU", 0.5, four));
    EXPECT_NE(delayAvfJson("popcount", "ALU", 0.5, one)
                  .find("\"attribution\":["),
              std::string::npos);
}

TEST(AttrEngine, AttributionDoesNotPerturbTheCounters)
{
    // Divergence walks ride outside the counted simulations, so every
    // non-attribution field must match an attribution-off run exactly
    // (the per-structure byte-identity acceptance bar).
    service::Workspace &ws = workspace();
    const Structure &alu = ws.structure("ALU");

    SamplingConfig config = smallSampling();
    config.threads = 2;
    DelayAvfResult with = ws.engine().delayAvf(alu, 0.5, config);
    config.attribution = false;
    const DelayAvfResult without = ws.engine().delayAvf(alu, 0.5, config);

    ASSERT_TRUE(with.attrValid);
    EXPECT_FALSE(without.attrValid);
    with.attrValid = false;
    with.attribution.clear();
    EXPECT_EQ(resultText(with), resultText(without));
}

/** Run one small --attribution campaign; returns its summary. */
CampaignSummary
runAttrCampaign(unsigned threads, const std::string &csv, ShardCache cache,
                const std::atomic<bool> *stop = nullptr)
{
    service::Workspace &ws = workspace();
    CampaignOptions opts;
    opts.benchmark = "popcount";
    opts.structures = {"ALU"};
    opts.delays = {0.5, 0.7};
    opts.runSavf = false;
    opts.sampling = smallSampling();
    opts.sampling.threads = threads;
    opts.csvPath = csv;
    opts.stopFlag = stop;
    opts.cache = std::move(cache);
    Campaign campaign(ws.engine(), ws.structures(), opts);
    return campaign.run();
}

TEST(AttrEngine, InterruptedResumeReproducesTablesByteForByte)
{
    const std::string ref_csv = tempPath("attr_ref.csv");

    // Reference: uninterrupted, 1 thread, no store.
    test::ShardLog ref_log;
    {
        const CampaignSummary summary =
            runAttrCampaign(1, ref_csv, ref_log.wrap());
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
    }
    const std::string ref_attr_csv = slurp(ref_csv + ".attr");
    ASSERT_FALSE(ref_log.shards.empty());
    EXPECT_NE(ref_log.shards.begin()->second.find(" attr "),
              std::string::npos);
    EXPECT_NE(ref_attr_csv.find("popcount"), std::string::npos);

    // Both interruption directions: cut at one thread count, rerun
    // over the store at another; the stored outcomes, CSV, and
    // attribution CSV must all equal the uninterrupted reference
    // byte-for-byte.
    struct Direction { unsigned cutThreads, resumeThreads; };
    for (const Direction dir : {Direction{1, 4}, Direction{4, 1}}) {
        const std::string tag = std::to_string(dir.cutThreads) + "to"
            + std::to_string(dir.resumeThreads);
        const std::string store_dir = tempPath("attr_" + tag);
        const std::string cut_csv = tempPath("attr_" + tag + ".csv");
        std::filesystem::remove_all(store_dir);

        test::ShardLog log;
        std::atomic<bool> stop{false};
        {
            service::ResultStore store({store_dir});
            const CampaignSummary cut = runAttrCampaign(
                dir.cutThreads, cut_csv,
                log.wrap(test::stopAfterStores(
                    service::shardCacheHooks(store, "fp"), 2, stop)),
                &stop);
            EXPECT_TRUE(cut.interrupted) << tag;
            EXPECT_GE(cut.shardsComputed, 2u) << tag;
        }
        {
            service::ResultStore store({store_dir});
            const CampaignSummary resumed = runAttrCampaign(
                dir.resumeThreads, cut_csv,
                log.wrap(service::shardCacheHooks(store, "fp")));
            EXPECT_FALSE(resumed.interrupted) << tag;
            EXPECT_GE(resumed.shardsFromCache, 2u) << tag;
        }
        EXPECT_EQ(log.shards, ref_log.shards) << tag;
        EXPECT_EQ(slurp(cut_csv), slurp(ref_csv)) << tag;
        EXPECT_EQ(slurp(cut_csv + ".attr"), ref_attr_csv) << tag;

        std::filesystem::remove_all(store_dir);
        for (const std::string &path : {cut_csv, cut_csv + ".attr"})
            std::remove(path.c_str());
    }

    for (const std::string &path : {ref_csv, ref_csv + ".attr"})
        std::remove(path.c_str());
}

std::string
tool(const std::string &name)
{
    return std::string(DAVF_TOOLS_DIR) + "/" + name;
}

TEST(AttrTools, WarmStoreRunPrintsTheSameTables)
{
    // A warm `davf_run --attribution --store-dir D` derives every table
    // from the stored cycle outcomes: it prints the cold run's report
    // and attribution CSV byte-for-byte and computes no cycle.
    const std::string store_dir = tempPath("tools_attr_store");
    std::filesystem::remove_all(store_dir);
    auto run = [&](const std::string &tag) {
        const std::string base = tempPath("tools_attr_" + tag);
        EXPECT_EQ(std::system((tool("davf_run")
                               + " --benchmark popcount --structure ALU"
                                 " --delays 0.5:0.7:0.2 --cycles 3"
                                 " --wires 40 --attribution --store-dir "
                               + store_dir + " --csv " + base
                               + ".csv --metrics-json " + base
                               + ".metrics > " + base + ".txt 2> /dev/null")
                                  .c_str()),
                  0);
        return base;
    };
    const std::string cold = run("cold");
    const std::string warm = run("warm");
    const std::string text = slurp(cold + ".txt");
    EXPECT_NE(text.find("attribution (d=0.50)"), std::string::npos) << text;
    EXPECT_NE(text.find("attribution (d=0.70)"), std::string::npos) << text;
    EXPECT_EQ(slurp(warm + ".txt"), text);
    EXPECT_EQ(slurp(warm + ".csv.attr"), slurp(cold + ".csv.attr"));
    auto cycles_computed = [](const std::string &base) -> uint64_t {
        const std::string json = slurp(base + ".metrics");
        const std::string key = "\"engine.cycles_computed\":";
        const size_t at = json.find(key);
        return at == std::string::npos
            ? 0
            : std::stoull(json.substr(at + key.size()));
    };
    EXPECT_GT(cycles_computed(cold), 0u);
    EXPECT_EQ(cycles_computed(warm), 0u);
    std::filesystem::remove_all(store_dir);
    for (const std::string &base : {cold, warm}) {
        for (const char *suffix : {".txt", ".csv", ".csv.attr", ".metrics"})
            std::remove((base + suffix).c_str());
    }
}

} // namespace
} // namespace davf
